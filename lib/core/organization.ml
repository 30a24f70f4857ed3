type t =
  | In_kernel
  | Single_server of [ `Mapped | `Message ]
  | Dedicated_servers
  | User_library

let all = [ In_kernel; Single_server `Mapped; Dedicated_servers; User_library ]

let name = function
  | In_kernel -> "in-kernel (Ultrix)"
  | Single_server `Mapped -> "single server (Mach/UX, mapped device)"
  | Single_server `Message -> "single server (Mach/UX, message driver)"
  | Dedicated_servers -> "dedicated servers"
  | User_library -> "user-level library"

let of_name = function
  | "inkernel" -> Some In_kernel
  | "server" -> Some (Single_server `Mapped)
  | "server-msg" -> Some (Single_server `Message)
  | "dedicated" -> Some Dedicated_servers
  | "userlib" -> Some User_library
  | _ -> None

let components = function
  | In_kernel ->
      [ ("application", "user");
        ("socket interface (trap)", "kernel boundary");
        ("protocol code (TCP/IP/ARP)", "kernel");
        ("device management", "kernel") ]
  | Single_server `Mapped ->
      [ ("application", "user");
        ("socket interface (IPC)", "domain boundary");
        ("protocol code (TCP/IP/ARP)", "trusted server");
        ("device management (mapped)", "trusted server") ]
  | Single_server `Message ->
      [ ("application", "user");
        ("socket interface (IPC)", "domain boundary");
        ("protocol code (TCP/IP/ARP)", "trusted server");
        ("device management", "kernel (message interface)") ]
  | Dedicated_servers ->
      [ ("application", "user");
        ("socket interface (IPC)", "domain boundary");
        ("protocol code (TCP)", "protocol server");
        ("packet forwarding (IPC)", "domain boundary");
        ("device management", "device server") ]
  | User_library ->
      [ ("application + protocol library (TCP/IP/ARP)", "user");
        ("send path (specialized trap + template check)", "kernel boundary");
        ("registry server (setup/teardown only)", "trusted server");
        ("network I/O module (demux, rings)", "kernel");
        ("device management", "kernel") ]

let describe ppf t =
  Format.fprintf ppf "@[<v>%s@,%s@," (name t) (String.make (String.length (name t)) '-');
  List.iter (fun (c, d) -> Format.fprintf ppf "  %-48s [%s]@," c d) (components t);
  Format.fprintf ppf "@]"

let describe_userlib ppf () =
  Format.fprintf ppf
    "@[<v>Structure of the user-level implementation (Figure 2)@,\
     ----------------------------------------------------@,\
     application@,\
     \  \\-- protocol library (TCP, IP, ARP; one engine + rx thread per connection)@,\
     \       |  procedure calls in, semaphore upcalls out@,\
     \       |@,\
     \       |  setup/teardown RPC            data path@,\
     \       v                                 v@,\
     registry server (privileged)     network I/O module (kernel)@,\
     \  - allocates end-points           - capability-gated send@,\
     \  - three-way handshake            - header template check@,\
     \  - installs filters/templates     - input demux: filter (Ethernet)@,\
     \  - exchanges BQIs                 \                or BQI ring (AN1)@,\
     \  - inherits connections           - shared-memory packet rings@,\
     \    on application exit            - batched semaphore notification@,\
     @,\
     The registry is on no data-transfer path: after setup, send/receive@,\
     involve only the library and the network I/O module.@]"
