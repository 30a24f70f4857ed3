(** The monolithic in-kernel organization (the Ultrix 4.2A baseline).

    The protocol stack is kernel-resident; applications cross into it
    with traps, and data crosses by copy (writes below 1024 bytes, with
    BSD small-mbuf chaining) or page remap (larger writes).  Because the
    kernel outlives applications, connection state needs no inheritance
    machinery: {!Sockets.app}'s [exit_app] is a no-op and applications
    close connections explicitly.

    On a multiprocessor machine the kernel runs one stack per CPU with
    port-based receive steering, under the locking discipline chosen by
    {!Uln_proto.Tcp_params.smp_locking} ([`Big_lock] serializes all
    netisr processing; [`Per_conn] runs stacks in parallel).  A 1-CPU
    machine takes the original single-stack, lock-free path,
    byte-identically. *)

type t

val create :
  Uln_host.Machine.t ->
  Uln_net.Nic.t ->
  ip:Uln_addr.Ip.t ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  unit ->
  t

val app : ?cpu:int -> t -> name:string -> Sockets.app
(** [cpu] (default 0) is the CPU the application runs on: its syscall
    charges land there and its sockets live on (and steer inbound
    traffic to) that CPU's stack.  Ignored on a 1-CPU machine. *)

val stack : t -> Uln_proto.Stack.t
(** The boot CPU's kernel stack (for statistics). *)
