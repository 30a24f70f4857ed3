(* MUST NOT COMPILE: a request of the wrong type on a registry leg.
   [Listen] carries a port number; an accept request belongs on
   [Accept]. *)
module Registry = Uln_core.Registry

let listen reg ~a_app ~a_port = Registry.call reg Registry.Listen { Registry.a_app; a_port }
