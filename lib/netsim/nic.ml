type rx_info = { frame : Frame.t; bqi : int; buffer : Uln_buf.View.t option }

type bqi_ops = {
  alloc_ring : capacity:int -> int;
  release_ring : int -> unit;
  provide_buffer : int -> Uln_buf.View.t -> bool;
  ring_depth : int -> int;
}

type t = {
  name : string;
  mac : Uln_addr.Mac.t;
  mtu : int;
  send : Frame.t -> unit;
  install_rx : (rx_info -> unit) -> unit;
  install_rx_steer : (rx_info -> Uln_host.Cpu.t option) -> unit;
  set_tx_cpu : Uln_host.Cpu.t option -> unit;
  bqi : bqi_ops option;
  rx_drops : unit -> int;
  set_napi : Napi.conf option -> unit;
  napi_stats : unit -> Napi.stats;
  txq_stats : unit -> Txq.stats;
}
