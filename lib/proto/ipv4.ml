module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Costs = Uln_host.Costs

let header_size = 20
let reasm_timeout = Time.sec 30

type handler = src:Ip.t -> dst:Ip.t -> Mbuf.t -> unit

type reasm = {
  mutable pieces : (int * View.t) list; (* byte offset, data; sorted *)
  mutable total : int option; (* known once the last fragment arrives *)
  mutable expire : Timers.handle option;
}

type t = {
  env : Proto_env.t;
  my_ip : Ip.t;
  mtu : int;
  tx : ?gso_size:int -> dst:Ip.t -> Mbuf.t -> unit;
  handlers : (int, handler) Hashtbl.t;
  reassembly : (Ip.t * Ip.t * int * int, reasm) Hashtbl.t;
  mutable ident : int;
  mutable drops : int;
  mutable fragments_out : int;
  mutable reassembled : int;
}

let create env ~my_ip ~mtu ~tx =
  { env;
    my_ip;
    mtu;
    tx;
    handlers = Hashtbl.create 8;
    reassembly = Hashtbl.create 8;
    ident = 1;
    drops = 0;
    fragments_out = 0;
    reassembled = 0 }

let my_ip t = t.my_ip
let mtu t = t.mtu
let set_handler t ~proto h = Hashtbl.replace t.handlers proto h
let drops t = t.drops
let fragments_out t = t.fragments_out
let reassembled t = t.reassembled

let encode_header t ~proto ~dst ~ttl ~payload_len ~ident ~flags ~frag_off =
  let h = View.create header_size in
  View.set_uint8 h 0 0x45;
  View.set_uint8 h 1 0;
  View.set_uint16 h 2 (header_size + payload_len);
  View.set_uint16 h 4 ident;
  View.set_uint16 h 6 ((flags lsl 13) lor (frag_off lsr 3));
  View.set_uint8 h 8 ttl;
  View.set_uint8 h 9 proto;
  View.set_uint16 h 10 0;
  View.set_uint32 h 12 (Ip.to_int32 t.my_ip);
  View.set_uint32 h 16 (Ip.to_int32 dst);
  View.set_uint16 h 10 (Checksum.of_view h);
  h

let output t ~proto ~dst ?(ttl = 64) ?(gso_size = 0) payload =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.ip_output;
  let len = Mbuf.length payload in
  let max_payload = t.mtu - header_size in
  t.ident <- (t.ident + 1) land 0xffff;
  let ident = t.ident in
  if gso_size > 0 then begin
    (* Segmentation offload: the oversized packet bypasses IP
       fragmentation — the NIC cuts it into wire frames that are each a
       complete, independently valid IP/TCP packet (never fragments),
       so the descriptor's gso_size travels to the driver instead. *)
    let hdr = encode_header t ~proto ~dst ~ttl ~payload_len:len ~ident ~flags:0 ~frag_off:0 in
    t.tx ~gso_size ~dst (Mbuf.prepend hdr payload)
  end
  else if len <= max_payload then begin
    let hdr = encode_header t ~proto ~dst ~ttl ~payload_len:len ~ident ~flags:0 ~frag_off:0 in
    t.tx ~dst (Mbuf.prepend hdr payload)
  end
  else begin
    (* Fragment on 8-byte boundaries. *)
    let chunk = max_payload land lnot 7 in
    let rec go off =
      if off < len then begin
        let this = Stdlib.min chunk (len - off) in
        let last = off + this >= len in
        let flags = if last then 0 else 1 (* MF *) in
        let piece = Mbuf.take (Mbuf.drop payload off) this in
        let hdr =
          encode_header t ~proto ~dst ~ttl ~payload_len:this ~ident ~flags ~frag_off:off
        in
        t.fragments_out <- t.fragments_out + 1;
        t.tx ~dst (Mbuf.prepend hdr piece);
        go (off + this)
      end
    in
    go 0
  end

let drop t = t.drops <- t.drops + 1

(* Insert a fragment and deliver the datagram when fully covered. *)
let reassemble t ~key ~frag_off ~more_fragments data deliver =
  let r =
    match Hashtbl.find_opt t.reassembly key with
    | Some r -> r
    | None ->
        let r = { pieces = []; total = None; expire = None } in
        let expire =
          Timers.arm t.env.Proto_env.timers reasm_timeout (fun () ->
              if Hashtbl.mem t.reassembly key then begin
                Hashtbl.remove t.reassembly key;
                drop t
              end)
        in
        r.expire <- Some expire;
        Hashtbl.replace t.reassembly key r;
        r
  in
  let len = View.length data in
  r.pieces <-
    List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) ((frag_off, data) :: r.pieces);
  if not more_fragments then r.total <- Some (frag_off + len);
  match r.total with
  | None -> ()
  | Some total ->
      (* Complete iff the sorted pieces cover [0, total) without holes. *)
      let covered =
        List.fold_left
          (fun pos (off, piece) ->
            if off <= pos then Stdlib.max pos (off + View.length piece) else pos)
          0 r.pieces
      in
      if covered >= total then begin
        (match r.expire with Some h -> Timers.disarm h | None -> ());
        Hashtbl.remove t.reassembly key;
        t.reassembled <- t.reassembled + 1;
        (* Rebuild the payload, clipping overlaps. *)
        let out = View.create total in
        List.iter
          (fun (off, piece) ->
            let n = Stdlib.min (View.length piece) (total - off) in
            if n > 0 then View.blit piece 0 out off n)
          r.pieces;
        deliver (Mbuf.of_view out)
      end

let input t packet =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.ip_input;
  if Mbuf.length packet < header_size then drop t
  else begin
    let hdr = Mbuf.flatten (Mbuf.take packet header_size) in
    let version_ihl = View.get_uint8 hdr 0 in
    let total_len = View.get_uint16 hdr 2 in
    if version_ihl <> 0x45 then drop t
    else if Checksum.of_view hdr <> 0 then drop t
    else if total_len > Mbuf.length packet || total_len < header_size then drop t
    else begin
      let src = Ip.of_int32 (View.get_uint32 hdr 12) in
      let dst = Ip.of_int32 (View.get_uint32 hdr 16) in
      let for_us = Ip.equal dst t.my_ip || Ip.equal dst Ip.broadcast in
      if not for_us then drop t (* no gateway functions, as in the paper *)
      else begin
        let proto = View.get_uint8 hdr 9 in
        let ident = View.get_uint16 hdr 4 in
        let ff = View.get_uint16 hdr 6 in
        let more_fragments = ff land 0x2000 <> 0 in
        let frag_off = (ff land 0x1fff) lsl 3 in
        (* Trim link-level padding (Ethernet minimum frame size). *)
        let payload = Mbuf.take (Mbuf.drop packet header_size) (total_len - header_size) in
        let deliver payload =
          match Hashtbl.find_opt t.handlers proto with
          | Some h -> h ~src ~dst payload
          | None -> drop t
        in
        if more_fragments || frag_off > 0 then
          reassemble t ~key:(src, dst, proto, ident) ~frag_off ~more_fragments
            (Mbuf.flatten payload) deliver
        else deliver payload
      end
    end
  end
