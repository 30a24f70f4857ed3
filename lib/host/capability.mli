(** Unforgeable capabilities (the role Mach ports play in the paper).

    A capability names an object and carries rights.  Unforgeability is
    enforced by abstraction: the only way to obtain one is from the
    component that created it (the registry server), and holders can
    transfer it — which is how connection end-points are handed off,
    inetd-style, without involving the registry.

    Capabilities can be revoked; a revoked capability fails every
    subsequent check, which is how the network I/O module cuts off an
    application whose connection was reclaimed. *)

type 'a t

exception Violation of string
(** Raised when a protection check fails anywhere in the host model. *)

val mint : tag:string -> 'a -> 'a t
(** [mint ~tag v] creates a capability for [v].  Only trusted components
    (registry server, network I/O module) call this. *)

val deref : 'a t -> 'a
(** Use the capability.
    @raise Violation if it has been revoked. *)

val tag : 'a t -> string
val id : 'a t -> int
(** Unique capability identity (for tables keyed by capability). *)

val revoke : 'a t -> unit

val same : 'a t -> 'a t -> bool
(** Physical identity: [true] iff both are the same minted capability. *)
