(* Array-backed binary min-heap specialised to integer-keyed events.

   The event queue is the hottest data structure in the simulator.  The
   benchmark workloads keep at most about 150 events pending, so a flat
   binary heap in three parallel arrays beats any linked structure: an
   insert or a pop moves ints and one value pointer, and allocates
   nothing unless the arrays have to grow. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  dummy : 'a; (* fills empty slots so popped values can be collected *)
}

let initial_capacity = 64

let create ~dummy =
  { keys = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    values = Array.make initial_capacity dummy;
    size = 0;
    dummy }

let size t = t.size
let is_empty t = t.size = 0

let grow t =
  let n = Array.length t.keys in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- extend t.keys 0;
  t.seqs <- extend t.seqs 0;
  t.values <- extend t.values t.dummy

(* Ties on [key] are broken by insertion sequence so that events scheduled
   for the same instant fire in FIFO order — determinism matters for
   reproducible experiments.  The (key, seq) comparisons are written out
   in place, loading [seqs] only on a key tie: as a function they cost
   the hot loop about twice its time.  Both sifts move a hole instead of
   swapping, writing each displaced entry once. *)
let insert t ~key ~seq value =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and values = t.values in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = keys.(p) in
    (* [seq] exceeds every seq present, so only a smaller key moves up. *)
    if key < kp then begin
      keys.(!i) <- kp;
      seqs.(!i) <- seqs.(p);
      values.(!i) <- values.(p);
      i := p
    end
    else moving := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  values.(!i) <- value

let min_key t =
  if t.size = 0 then invalid_arg "Pheap.min_key: empty heap";
  t.keys.(0)

let pop t =
  if t.size = 0 then invalid_arg "Pheap.pop: empty heap";
  let keys = t.keys and seqs = t.seqs and values = t.values in
  let top = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  (* Sift the last entry down from the root. *)
  let key = keys.(n) and seq = seqs.(n) and value = values.(n) in
  values.(n) <- t.dummy;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let kl = keys.(l) and kr = keys.(r) in
            if kr < kl || (kr = kl && seqs.(r) < seqs.(l)) then r else l
          else l
        in
        let kc = keys.(c) in
        if kc < key || (kc = key && seqs.(c) < seq) then begin
          keys.(!i) <- kc;
          seqs.(!i) <- seqs.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else moving := false
      end
    done;
    keys.(!i) <- key;
    seqs.(!i) <- seq;
    values.(!i) <- value
  end;
  top
