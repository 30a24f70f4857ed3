exception Violation of string

type 'a t = { id : int; tag : string; value : 'a; mutable revoked : bool }

let next_id = ref 0

let mint ~tag value =
  incr next_id;
  { id = !next_id; tag; value; revoked = false }

let deref t =
  if t.revoked then raise (Violation (Printf.sprintf "capability %s#%d revoked" t.tag t.id));
  t.value

let tag t = t.tag
let id t = t.id
let revoke t = t.revoked <- true
let same a b = a.id = b.id
