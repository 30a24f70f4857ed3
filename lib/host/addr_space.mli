(** Protection domains (address spaces).

    Every piece of code in the simulation executes on behalf of a
    domain: the kernel, a user application, or a trusted server.  The
    domain is the unit of protection — shared-memory regions are mapped
    into domains, and crossing between domains is what the cost model
    charges for (traps, IPC, context switches). *)

type kind = Kernel | User | Server

type t

val create : kind -> string -> t
val kind : t -> kind
val name : t -> string
val equal : t -> t -> bool
(** Physical identity: two domains are equal only if they are the same
    [create]d domain, whatever their kind and name. *)

val is_privileged : t -> bool
(** Kernel and trusted servers are privileged; applications are not. *)

val pp : Format.formatter -> t -> unit
