(** The protocol organizations under study (paper Figure 1), and
    structural descriptions that regenerate Figures 1 and 2 from the
    implementations. *)

type t =
  | In_kernel  (** monolithic, kernel-resident (UNIX/Ultrix) *)
  | Single_server of [ `Mapped | `Message ]
      (** monolithic, one trusted server (Mach 3.0/UX); the device is
          mapped into the server, or the driver stays in the kernel
          behind a message interface (paper §1.2) *)
  | Dedicated_servers  (** per-protocol + device servers (rare case) *)
  | User_library  (** the paper's proposed structure *)

val all : t list
(** Every organization, with the single-server mapped variant. *)

val name : t -> string
val of_name : string -> t option
(** Parse ["inkernel" | "server" | "server-msg" | "dedicated" | "userlib"]. *)

val describe : Format.formatter -> t -> unit
(** Render one organization's block of Figure 1. *)

val describe_userlib : Format.formatter -> unit -> unit
(** Render Figure 2: the three-component structure and its
    interactions. *)
