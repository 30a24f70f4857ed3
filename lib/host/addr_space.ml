type kind = Kernel | User | Server

type t = { kind : kind; name : string }

(* A domain is its own identity (physical equality), so [create] must
   allocate: inlined at a call site with constant arguments, the record
   would become one shared static block. *)
let[@inline never] create kind name = { kind; name }

let kind t = t.kind
let name t = t.name
let equal a b = a == b

let is_privileged t = match t.kind with Kernel | Server -> true | User -> false

let pp ppf t =
  let k = match t.kind with Kernel -> "kernel" | User -> "user" | Server -> "server" in
  Format.fprintf ppf "%s(%s)" t.name k
