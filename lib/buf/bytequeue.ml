type t = { mutable data : bytes; mutable head : int; mutable len : int }

let create ?(capacity = 4096) () =
  { data = Bytes.create (Stdlib.max 16 capacity); head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* Keep data contiguous: compact when the head has drifted, grow when
   appending would overflow. *)
let ensure t extra =
  let cap = Bytes.length t.data in
  if t.head + t.len + extra > cap then
    if t.len + extra <= cap && t.head > 0 then begin
      Bytes.blit t.data t.head t.data 0 t.len;
      t.head <- 0
    end
    else begin
      let new_cap = ref (Stdlib.max 16 (cap * 2)) in
      while t.len + extra > !new_cap do
        new_cap := !new_cap * 2
      done;
      let fresh = Bytes.create !new_cap in
      Bytes.blit t.data t.head fresh 0 t.len;
      t.data <- fresh;
      t.head <- 0
    end

let push_string t s =
  let n = String.length s in
  ensure t n;
  Bytes.blit_string s 0 t.data (t.head + t.len) n;
  t.len <- t.len + n

let push t (v : View.t) =
  let n = v.View.len in
  ensure t n;
  Bytes.blit v.View.buffer v.View.off t.data (t.head + t.len) n;
  t.len <- t.len + n

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    raise (View.Bounds "Bytequeue.peek: range exceeds queue");
  View.of_bytes (Bytes.sub t.data (t.head + off) len)

let peek_sum t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    raise (View.Bounds "Bytequeue.peek_sum: range exceeds queue");
  let dst = View.of_bytes (Bytes.create len) in
  let src = { View.buffer = t.data; off = t.head + off; len } in
  let sum = View.blit_sum src 0 dst 0 len in
  (dst, sum)

let drop t n =
  if n < 0 || n > t.len then raise (View.Bounds "Bytequeue.drop: out of range");
  t.head <- t.head + n;
  t.len <- t.len - n;
  if t.len = 0 then t.head <- 0

let pop t n =
  let n = Stdlib.min n t.len in
  let v = peek t ~off:0 ~len:n in
  drop t n;
  v

let clear t =
  t.head <- 0;
  t.len <- 0
