(** The shared-stack organizations: Ultrix (in-kernel), Mach/UX (one
    trusted server; device mapped into it, or reached through the
    kernel's message interface) and dedicated servers.

    All three run the same BSD stack, shared by every application on
    the host; applications reach it through {!Sockets.app}.  They differ
    only in which boundaries a socket call, a sent frame and a received
    frame cross, and in what each crossing costs (paper Figure 1).
    Because the stack outlives applications, connection state needs no
    inheritance machinery: [exit_app] is a no-op and applications close
    connections explicitly.

    The kernel runs one stack per CPU, with port-based receive steering
    and the locking discipline of
    {!Uln_proto.Tcp_params.smp_locking}; a 1-CPU machine runs one stack
    and takes no lock.  A server runs one stack on the boot CPU
    whatever the machine's size. *)

type t

val create :
  Organization.t ->
  Uln_host.Machine.t ->
  Uln_net.Nic.t ->
  ip:Uln_addr.Ip.t ->
  tcp_params:Uln_proto.Tcp_params.t ->
  unit ->
  t
(** The host's stacks and receive threads.
    @raise Invalid_argument for {!Organization.User_library}. *)

val app : ?cpu:int -> t -> name:string -> Sockets.app
(** [cpu] (default 0) is the CPU the application runs on.  In the
    kernel its system calls are charged there and its sockets live on
    (and steer inbound traffic to) that CPU's stack; a server ignores
    it. *)

val stacks : t -> Uln_proto.Stack.t list
(** One stack per CPU in the kernel, one in a server; the boot CPU's
    first. *)
