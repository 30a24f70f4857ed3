(** Transmit-queue hardware model shared by both NIC models.

    {b GSO splitting}: a transmit descriptor whose frame carries a
    non-zero {!Frame.t.gso_size} names one oversized IP/TCP packet; the
    controller cuts it into wire frames of at most that many TCP payload
    bytes, replaying the header template (sequence numbers advanced,
    FIN/PSH only on the last frame, checksums regenerated).  The wire
    traffic is byte-identical to what the per-segment software path
    would have produced.

    Transmit completions are unmoderated: each finished descriptor is
    released at once, charge-free. *)

type stats = {
  gso_episodes : int;  (** super-segment descriptors accepted *)
  gso_frames : int;  (** wire frames cut from them *)
  events : int;  (** completion events: one per descriptor *)
  descs : int;  (** descriptors completed *)
}

type t

val create : unit -> t

val note_gso : t -> frames:int -> unit
(** Count one GSO episode that cut [frames] wire frames. *)

val complete : t -> (unit -> unit) -> unit
(** A transmit descriptor finished: count it and run its release now. *)

val stats : t -> stats

val split : Frame.t -> Frame.t list
(** Segment a descriptor's frame per its [gso_size] (identity when 0):
    the returned frames are ordinary wire packets with correct IP and
    TCP checksums. *)
