type t = { buffer : bytes; off : int; len : int }

exception Bounds of string

let bounds_error fmt = Format.kasprintf (fun s -> raise (Bounds s)) fmt

let create n =
  if n < 0 then bounds_error "View.create: negative length %d" n;
  { buffer = Bytes.make n '\000'; off = 0; len = n }

let of_string s = { buffer = Bytes.of_string s; off = 0; len = String.length s }
let of_bytes b = { buffer = b; off = 0; len = Bytes.length b }
let length t = t.len

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then
    bounds_error "View.sub: window (%d,%d) exceeds view of length %d" off len t.len;
  { buffer = t.buffer; off = t.off + off; len }

let shift t n = sub t n (t.len - n)

let check t i width op =
  if i < 0 || i + width > t.len then
    bounds_error "View.%s: offset %d (width %d) exceeds view of length %d" op i width t.len

let get_uint8 t i =
  check t i 1 "get_uint8";
  Char.code (Bytes.get t.buffer (t.off + i))

let set_uint8 t i v =
  check t i 1 "set_uint8";
  Bytes.set t.buffer (t.off + i) (Char.chr (v land 0xff))

let get_uint16 t i =
  check t i 2 "get_uint16";
  Bytes.get_uint16_be t.buffer (t.off + i)

let set_uint16 t i v =
  check t i 2 "set_uint16";
  Bytes.set_uint16_be t.buffer (t.off + i) (v land 0xffff)

let get_uint32 t i =
  check t i 4 "get_uint32";
  Bytes.get_int32_be t.buffer (t.off + i)

let set_uint32 t i v =
  check t i 4 "set_uint32";
  Bytes.set_int32_be t.buffer (t.off + i) v

let blit src soff dst doff len =
  check src soff len "blit(src)";
  check dst doff len "blit(dst)";
  Bytes.blit src.buffer (src.off + soff) dst.buffer (dst.off + doff) len

(* Raw 64-bit loads and stores: the range is checked once per call,
   not per load.  Loads are in native byte order. *)
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The four big-endian 16-bit words of a native 8-byte load (one bswap
   on little-endian hosts).  The top word is taken before
   [Int64.to_int], which drops bit 63.  Inlined so that the word stays
   unboxed: the loops below allocate nothing. *)
let[@inline] sum_words w =
  let w = if Sys.big_endian then w else bswap64 w in
  let x = Int64.to_int w in
  Int64.to_int (Int64.shift_right_logical w 48)
  + ((x lsr 32) land 0xffff)
  + ((x lsr 16) land 0xffff)
  + (x land 0xffff)

(* The words and the odd byte past the last whole 8-byte group. *)
let sum_tail b base i len =
  let acc = ref 0 in
  let i = ref i in
  while !i + 2 <= len do
    acc := !acc + Bytes.get_uint16_be b (base + !i);
    i := !i + 2
  done;
  if !i < len then acc := !acc + (Char.code (Bytes.get b (base + !i)) lsl 8);
  !acc

(* One's-complement partial sum of [len] bytes at [off], big-endian
   16-bit words, an odd trailing byte as the high byte of a final
   zero-padded word; un-complemented and unfolded.  The loop reads 8
   bytes per load and adds their four words, so the raw sum is exactly
   the word-by-word one.  The paper's "two bytes per iteration" is a
   property of the cost model's checksum charge, not of this loop. *)
let sum16 t off len =
  check t off len "sum16";
  let b = t.buffer and base = t.off + off in
  let acc = ref 0 in
  let i = ref 0 in
  while !i + 8 <= len do
    acc := !acc + sum_words (unsafe_get64 b (base + !i));
    i := !i + 8
  done;
  !acc + sum_tail b base !i len

(* [blit] fused with [sum16]: each 8-byte load is stored unchanged and
   its words summed. *)
let blit_sum src soff dst doff len =
  check src soff len "blit_sum(src)";
  check dst doff len "blit_sum(dst)";
  let sb = src.buffer and sbase = src.off + soff in
  let db = dst.buffer and dbase = dst.off + doff in
  let acc = ref 0 in
  let i = ref 0 in
  while !i + 8 <= len do
    let w = unsafe_get64 sb (sbase + !i) in
    unsafe_set64 db (dbase + !i) w;
    acc := !acc + sum_words w;
    i := !i + 8
  done;
  Bytes.blit sb (sbase + !i) db (dbase + !i) (len - !i);
  !acc + sum_tail db dbase !i len

let blit_from_string s soff dst doff len =
  if soff < 0 || soff + len > String.length s then
    bounds_error "View.blit_from_string: source window (%d,%d)" soff len;
  check dst doff len "blit_from_string(dst)";
  Bytes.blit_string s soff dst.buffer (dst.off + doff) len

let fill t c = Bytes.fill t.buffer t.off t.len c
let to_string t = Bytes.sub_string t.buffer t.off t.len
let copy t = of_bytes (Bytes.sub t.buffer t.off t.len)

let concat vs =
  let total = List.fold_left (fun acc v -> acc + v.len) 0 vs in
  let out = of_bytes (Bytes.create total) in
  let pos = ref 0 in
  let copy_one v =
    blit v 0 out !pos v.len;
    pos := !pos + v.len
  in
  List.iter copy_one vs;
  out

let equal a b = a.len = b.len && to_string a = to_string b

let pp ppf t =
  let max_bytes = 48 in
  let n = Stdlib.min t.len max_bytes in
  Format.fprintf ppf "[%d]" t.len;
  for i = 0 to n - 1 do
    if i mod 16 = 0 then Format.fprintf ppf "@ ";
    Format.fprintf ppf "%02x" (get_uint8 t i)
  done;
  if t.len > max_bytes then Format.fprintf ppf "..."
