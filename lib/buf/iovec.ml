(* A byte queue held as a chain of views (an iovec / mbuf chain) rather
   than a contiguous buffer.  Pushing references the caller's view
   without copying; each slot may carry a release callback that fires
   exactly once, when the slot's last byte is consumed (or on [clear]).
   This is the send-queue representation of the zero-copy data path:
   retransmission peeks re-reference the same backing buffers, and the
   checksum is composed across fragment boundaries instead of requiring
   a flatten. *)

type slot = { view : View.t; release : (unit -> unit) option }

type t = { mutable slots : slot list; mutable len : int }

let create () = { slots = []; len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let slot_count t = List.length t.slots

let fire s = match s.release with Some f -> f () | None -> ()

let push ?release t v =
  let n = View.length v in
  if n = 0 then (match release with Some f -> f () | None -> ())
  else begin
    t.slots <- t.slots @ [ { view = v; release } ];
    t.len <- t.len + n
  end

(* Collect the sub-views covering [off, off+len) without copying. *)
let views t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    raise (View.Bounds "Iovec.peek: range exceeds queue");
  let rec go off len = function
    | [] -> []
    | s :: rest ->
        let l = View.length s.view in
        if off >= l then go (off - l) len rest
        else
          let take = Stdlib.min (l - off) len in
          let v = View.sub s.view off take in
          if take = len then [ v ] else v :: go 0 (len - take) rest
  in
  if len = 0 then [] else go off len t.slots

let peek t ~off ~len =
  List.fold_left Mbuf.append Mbuf.empty (views t ~off ~len)

(* Unfolded big-endian 16-bit partial sum over the range, composed
   across fragment boundaries: when the running parity is odd, the first
   byte of the next fragment is the low byte completing the previous
   word; the remainder is summed word-at-a-time (same composition as the
   protocol checksum's [partial]).  Equals [View.sum16] over the
   flattened range, so an odd-length fragment mid-chain is handled
   without any copy. *)
let peek_sum t ~off ~len =
  let vs = views t ~off ~len in
  let acc, _odd =
    List.fold_left
      (fun (acc, odd) v ->
        let l = View.length v in
        if l = 0 then (acc, odd)
        else begin
          let acc, skip = if odd then (acc + View.get_uint8 v 0, 1) else (acc, 0) in
          let acc = acc + View.sum16 v skip (l - skip) in
          (acc, odd <> (l land 1 = 1))
        end)
      (0, false) vs
  in
  (List.fold_left Mbuf.append Mbuf.empty vs, acc)

let drop t n =
  if n < 0 || n > t.len then raise (View.Bounds "Iovec.drop: out of range");
  let rec go n slots =
    if n = 0 then slots
    else
      match slots with
      | [] -> assert false
      | s :: rest ->
          let l = View.length s.view in
          if n >= l then begin
            fire s;
            go (n - l) rest
          end
          else { s with view = View.shift s.view n } :: rest
  in
  t.slots <- go n t.slots;
  t.len <- t.len - n

let clear t =
  List.iter fire t.slots;
  t.slots <- [];
  t.len <- 0
