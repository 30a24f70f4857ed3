exception Violation of string

type 'a t = { tag : string; value : 'a; mutable revoked : bool }

let mint ~tag value = { tag; value; revoked = false }

let deref t =
  if t.revoked then raise (Violation (Printf.sprintf "capability %s revoked" t.tag));
  t.value

let tag t = t.tag
let revoke t = t.revoked <- true
let same a b = a == b
