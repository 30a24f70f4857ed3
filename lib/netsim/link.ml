module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Mac = Uln_addr.Mac

type station = {
  id : int;
  addr : Mac.t;
  deliver : Frame.t -> unit;
  channel : channel;
}

and channel = {
  mutable busy : bool;
  pending : (station * Frame.t * (unit -> unit)) Queue.t;
}

type t = {
  sched : Sched.t;
  name : string;
  rate_mbps : int;
  overhead_bytes : int;
  min_payload : int;
  propagation : Time.span;
  duplex : bool;
  shared_channel : channel; (* used when half-duplex *)
  mutable stations : station list;
  mutable fault : Fault.t;
  mutable monitor : (Time.t -> Frame.t -> unit) option;
  mutable held : (station * Frame.t) option; (* reorder buffer *)
  mutable bytes_sent : int;
}

let new_channel () = { busy = false; pending = Queue.create () }

let custom sched ~name ~rate_mbps ~overhead_bytes ~min_payload ~propagation ~duplex =
  { sched;
    name;
    rate_mbps;
    overhead_bytes;
    min_payload;
    propagation;
    duplex;
    shared_channel = new_channel ();
    stations = [];
    fault = Fault.none;
    monitor = None;
    held = None;
    bytes_sent = 0 }

(* 10 Mb/s Ethernet: 14B header + 4B FCS + 8B preamble + 12B IFG = 38B of
   per-frame overhead, 46B minimum payload.  These constants are what make
   "link saturation" about 9.8 Mb/s for maximum-sized frames, matching the
   standalone baseline in the paper's Table 1. *)
let ethernet sched =
  custom sched ~name:"ethernet" ~rate_mbps:10 ~overhead_bytes:38 ~min_payload:46
    ~propagation:(Time.us 5) ~duplex:false

let an1 sched =
  custom sched ~name:"an1" ~rate_mbps:100 ~overhead_bytes:38 ~min_payload:0
    ~propagation:(Time.us 2) ~duplex:true

let name t = t.name
let rate_mbps t = t.rate_mbps
let bytes_sent t = t.bytes_sent
let set_fault t f = t.fault <- f
let set_monitor t f = t.monitor <- Some f

let frame_time t payload_bytes =
  let body = Stdlib.max t.min_payload payload_bytes in
  let bits = (t.overhead_bytes + body) * 8 in
  (* ns = bits / (rate_mbps * 1e6) * 1e9 = bits * 1000 / rate_mbps *)
  Time.ns (bits * 1000 / t.rate_mbps)

let saturation_mbps t payload_bytes =
  let span = frame_time t payload_bytes in
  float_of_int (payload_bytes * 8) /. (Time.to_us_f span /. 1e6) /. 1e6

let attach t ~addr deliver =
  let channel = if t.duplex then new_channel () else t.shared_channel in
  let s = { id = List.length t.stations; addr; deliver; channel } in
  t.stations <- t.stations @ [ s ];
  s

(* A station only hears frames to its own address or to
   broadcast, the filtering a NIC does in hardware; no delivery event is
   scheduled for a frame it would discard. *)
let hears st (frame : Frame.t) = Mac.equal frame.dst st.addr || Mac.is_broadcast frame.dst

let deliver_to_others t sender frame =
  let push frame =
    List.iter
      (fun st ->
        if st.id <> sender.id && hears st frame then
          Sched.after t.sched t.propagation (fun () -> st.deliver frame))
      t.stations
  in
  let release_held () =
    match t.held with
    | None -> ()
    | Some (_, held_frame) ->
        t.held <- None;
        push held_frame
  in
  match Fault.judge t.fault with
  | Fault.Drop -> release_held ()
  | Fault.Deliver ->
      push frame;
      release_held ()
  | Fault.Duplicate ->
      push frame;
      push frame;
      release_held ()
  | Fault.Corrupt ->
      push (Fault.corrupt_frame t.fault frame);
      release_held ()
  | Fault.Reorder -> (
      match t.held with
      | None ->
          t.held <- Some (sender, frame);
          (* A held frame must not be held forever if traffic stops:
             force release after a bounded delay. *)
          Sched.after t.sched (Time.ms 20) (fun () ->
              match t.held with
              | Some (_, f) when f == frame ->
                  t.held <- None;
                  push f
              | _ -> ())
      | Some _ ->
          (* Only one frame held at a time; deliver this one normally. *)
          push frame;
          release_held ())

let rec start_transmission t channel =
  match Queue.take_opt channel.pending with
  | None -> channel.busy <- false
  | Some (sender, frame, on_done) ->
      channel.busy <- true;
      let dur = frame_time t (Frame.payload_length frame) in
      Sched.after t.sched dur (fun () ->
          t.bytes_sent <- t.bytes_sent + Frame.payload_length frame;
          (match t.monitor with Some f -> f (Sched.now t.sched) frame | None -> ());
          on_done ();
          deliver_to_others t sender frame;
          start_transmission t channel)

let transmit t station frame ~on_done =
  let channel = station.channel in
  Queue.push (station, frame, on_done) channel.pending;
  if not channel.busy then start_transmission t channel
