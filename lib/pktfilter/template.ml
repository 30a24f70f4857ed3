module View = Uln_buf.View
module Ip = Uln_addr.Ip

type field = { offset : int; mask : int; value : int }

(* [span] is fixed at construction: the send path reads it per packet. *)
type t = { fields : field list; bqi : int; span : int }

let make ?(bqi = 0) fields =
  { fields; bqi; span = List.fold_left (fun acc f -> Int.max acc (f.offset + 2)) 0 fields }

let bqi t = t.bqi
let fields t = t.fields
let with_bqi t ~bqi = { t with bqi }

let matches t pkt =
  let len = View.length pkt in
  let ok f =
    f.offset + 2 <= len && View.get_uint16 pkt f.offset land f.mask = f.value
  in
  List.for_all ok t.fields

let span t = t.span

(* A handful of compare-and-branch per field. *)
let check_cycles t = 10 + (8 * List.length t.fields)

let word offset value = { offset; mask = 0xffff; value = value land 0xffff }

let ip_fields off addr =
  let v = Int32.to_int (Ip.to_int32 addr) land 0xffffffff in
  [ word off ((v lsr 16) land 0xffff); word (off + 2) (v land 0xffff) ]

let tcp_conn ~src_ip ~dst_ip ~src_port ~dst_port ?(bqi = 0) () =
  (* Offsets as in Program: ethertype@12, proto@23, src ip@26, dst ip@30,
     sport@34, dport@36.  The protocol byte is the low byte of word 22. *)
  let proto_field = { offset = 22; mask = 0x00ff; value = 6 } in
  make ~bqi
    (word 12 0x0800 :: proto_field
    :: (ip_fields 26 src_ip @ ip_fields 30 dst_ip @ [ word 34 src_port; word 36 dst_port ]))

let rrp_endpoint ~src_ip ~role ~port () =
  let proto_field = { offset = 22; mask = 0x00ff; value = 81 } in
  let port_off = match role with `Client -> 34 | `Server -> 36 in
  make (word 12 0x0800 :: proto_field :: (ip_fields 26 src_ip @ [ word port_off port ]))

let udp_bound ~src_ip ~src_port () =
  let proto_field = { offset = 22; mask = 0x00ff; value = 17 } in
  make (word 12 0x0800 :: proto_field :: (ip_fields 26 src_ip @ [ word 34 src_port ]))

let pp ppf t =
  Format.fprintf ppf "@[<v>template bqi=%d@ " t.bqi;
  List.iter
    (fun f -> Format.fprintf ppf "  @%d land %04x = %04x@ " f.offset f.mask f.value)
    t.fields;
  Format.fprintf ppf "@]"
