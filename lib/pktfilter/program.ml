module Ip = Uln_addr.Ip

type t = { insns : Insn.t list; max_offset : int }

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let max_stack = 32

let validate insns =
  if insns = [] then invalid "empty program";
  let depth = ref 0 in
  let max_off = ref 0 in
  let step i insn =
    let pops, pushes = Insn.stack_effect insn in
    if !depth < pops then invalid "stack underflow at instruction %d" i;
    depth := !depth - pops + pushes;
    if !depth > max_stack then invalid "stack overflow at instruction %d" i;
    (match insn with
    | Insn.Push_word off ->
        if off < 0 then invalid "negative offset at instruction %d" i;
        max_off := Stdlib.max !max_off (off + 2)
    | Insn.Push_byte off ->
        if off < 0 then invalid "negative offset at instruction %d" i;
        max_off := Stdlib.max !max_off (off + 1)
    | Insn.Push_lit v ->
        if v < 0 || v > 0xffff then invalid "literal out of 16-bit range at instruction %d" i
    | Insn.Shl n | Insn.Shr n ->
        if n < 0 || n > 15 then invalid "bad shift amount at instruction %d" i
    | _ -> ())
  in
  List.iteri step insns;
  if !depth < 1 then invalid "program leaves no result on the stack";
  !max_off

let of_insns insns =
  let max_offset = validate insns in
  { insns; max_offset }

let insns t = t.insns
let length t = List.length t.insns
let max_offset t = t.max_offset

let interp_cycles t = List.fold_left (fun acc i -> acc + Insn.cycles i) 0 t.insns

let compiled_cycles t =
  (* Code synthesis removes the fetch/decode loop; packet loads remain. *)
  List.fold_left
    (fun acc i ->
      acc + match i with Insn.Push_word _ | Insn.Push_byte _ -> 8 | _ -> 3)
    0 t.insns

(* Offsets below assume Ethernet-format encapsulation: link header is 14
   bytes, IP header starts at 14 and (in this stack) is always 20 bytes,
   so transport ports sit at offsets 34 and 36. *)
let off_ethertype = 12
let off_ip_proto = 23
let off_ip_src = 26
let off_ip_dst = 30
let off_sport = 34
let off_dport = 36

let match_word off v rest = Insn.Push_word off :: Insn.Push_lit v :: Insn.Eq :: Insn.Cand :: rest
let match_byte off v rest = Insn.Push_byte off :: Insn.Push_lit v :: Insn.Eq :: Insn.Cand :: rest

let ip_halves addr =
  let v = Int32.to_int (Int32.logand (Ip.to_int32 addr) 0xffffffffl) land 0xffffffff in
  ((v lsr 16) land 0xffff, v land 0xffff)

let match_ip off addr rest =
  let hi, lo = ip_halves addr in
  match_word off hi (match_word (off + 2) lo rest)

let tcp_conn ~src_ip ~dst_ip ~src_port ~dst_port =
  of_insns
    (match_word off_ethertype 0x0800
       (match_byte off_ip_proto 6
          (match_ip off_ip_src src_ip
             (match_ip off_ip_dst dst_ip
                (match_word off_sport src_port
                   (match_word off_dport dst_port [ Insn.Push_lit 1 ]))))))

let tcp_conn_pins ~src_ip ~dst_ip ~src_port ~dst_port =
  let word off v rest = (off, (v lsr 8) land 0xff) :: (off + 1, v land 0xff) :: rest in
  let ip off addr rest =
    let hi, lo = ip_halves addr in
    word off hi (word (off + 2) lo rest)
  in
  word off_ethertype 0x0800
    ((off_ip_proto, 6)
    :: ip off_ip_src src_ip (ip off_ip_dst dst_ip (word off_sport src_port (word off_dport dst_port []))))

let tcp_conn_bytes ~src_ip ~dst_ip ~src_port ~dst_port =
  let b = Bytes.create 15 in
  let word i v =
    Bytes.unsafe_set b i (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (v land 0xff))
  in
  let ip i addr =
    let hi, lo = ip_halves addr in
    word i hi;
    word (i + 2) lo
  in
  word 0 0x0800;
  Bytes.unsafe_set b 2 (Char.unsafe_chr 6);
  ip 3 src_ip;
  ip 7 dst_ip;
  word 11 src_port;
  word 13 dst_port;
  Bytes.unsafe_to_string b

let tcp_dst_port ~dst_ip ~dst_port =
  of_insns
    (match_word off_ethertype 0x0800
       (match_byte off_ip_proto 6
          (match_ip off_ip_dst dst_ip (match_word off_dport dst_port [ Insn.Push_lit 1 ]))))

let udp_port ~dst_ip ~dst_port =
  of_insns
    (match_word off_ethertype 0x0800
       (match_byte off_ip_proto 17
          (match_ip off_ip_dst dst_ip (match_word off_dport dst_port [ Insn.Push_lit 1 ]))))

(* RRP message layout after the 20-byte IP header: client port at IP
   payload offset 0 (absolute 34), server port at 2 (36), type at 8
   (42). *)
let rrp_server ~dst_ip ~port =
  of_insns
    (match_word off_ethertype 0x0800
       (match_byte off_ip_proto 81
          (match_ip off_ip_dst dst_ip
             (match_byte 42 0 (match_word 36 port [ Insn.Push_lit 1 ])))))

let rrp_client ~dst_ip ~port =
  of_insns
    (match_word off_ethertype 0x0800
       (match_byte off_ip_proto 81
          (match_ip off_ip_dst dst_ip
             (match_byte 42 1 (match_word 34 port [ Insn.Push_lit 1 ])))))

let arp () = of_insns (match_word off_ethertype 0x0806 [ Insn.Push_lit 1 ])

let ip_proto proto =
  of_insns (match_word off_ethertype 0x0800 (match_byte off_ip_proto proto [ Insn.Push_lit 1 ]))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri (fun i insn -> Format.fprintf ppf "%3d: %a@ " i Insn.pp insn) t.insns;
  Format.fprintf ppf "@]"

(* Parse a printed listing back into a program: one instruction per
   line, an optional "N:" index prefix (as [pp] emits), blank lines and
   "#" comment lines ignored. *)
let of_string s =
  let strip_index line =
    match String.index_opt line ':' with
    | Some i
      when String.trim (String.sub line 0 i) <> ""
           && int_of_string_opt (String.trim (String.sub line 0 i)) <> None ->
        String.sub line (i + 1) (String.length line - i - 1)
    | _ -> line
  in
  let parse_line (n, acc) line =
    let line = String.trim (strip_index line) in
    if line = "" || line.[0] = '#' then (n + 1, acc)
    else
      match acc with
      | Error _ -> (n + 1, acc)
      | Ok insns -> (
          match Insn.parse line with
          | Some i -> (n + 1, Ok (i :: insns))
          | None -> (n + 1, Error (Printf.sprintf "line %d: cannot parse %S" n line)))
  in
  let _, acc = List.fold_left parse_line (1, Ok []) (String.split_on_char '\n' s) in
  match acc with
  | Error e -> Error e
  | Ok insns -> (
      match of_insns (List.rev insns) with
      | p -> Ok p
      | exception Invalid msg -> Error msg)
