type t = { segs : View.t list; len : int }

let empty = { segs = []; len = 0 }

let of_view v = if View.length v = 0 then empty else { segs = [ v ]; len = View.length v }
let of_string s = of_view (View.of_string s)

let length t = t.len
let segments t = t.segs
let segment_count t = List.length t.segs

let prepend hdr t =
  if View.length hdr = 0 then t else { segs = hdr :: t.segs; len = t.len + View.length hdr }

let append t v =
  if View.length v = 0 then t else { segs = t.segs @ [ v ]; len = t.len + View.length v }

let concat a b =
  if a.len = 0 then b else if b.len = 0 then a else { segs = a.segs @ b.segs; len = a.len + b.len }

let drop t n =
  if n < 0 || n > t.len then raise (View.Bounds "Mbuf.drop: out of range");
  let rec go n = function
    | [] -> []
    | v :: rest ->
        let l = View.length v in
        if n >= l then go (n - l) rest
        else if n = 0 then v :: rest
        else View.shift v n :: rest
  in
  { segs = go n t.segs; len = t.len - n }

let take t n =
  if n < 0 || n > t.len then raise (View.Bounds "Mbuf.take: out of range");
  let rec go n = function
    | [] -> []
    | v :: rest ->
        let l = View.length v in
        if n >= l then v :: go (n - l) rest
        else if n = 0 then []
        else [ View.sub v 0 n ]
  in
  { segs = go n t.segs; len = n }

let split t n = (take t n, drop t n)

let flatten t =
  match t.segs with
  | [] -> View.create 0
  | [ v ] -> v
  | segs -> View.concat segs

let to_string t = View.to_string (flatten t)

let blit t off dst doff len =
  if off < 0 || len < 0 || off + len > t.len then raise (View.Bounds "Mbuf.blit: out of range");
  let rec go segs off doff len =
    if len > 0 then
      match segs with
      | [] -> assert false
      | v :: rest ->
          let l = View.length v in
          if off >= l then go rest (off - l) doff len
          else begin
            let n = Stdlib.min (l - off) len in
            View.blit v off dst doff n;
            go rest 0 (doff + n) (len - n)
          end
  in
  go t.segs off doff len

let get_uint8 t i =
  if i < 0 || i >= t.len then raise (View.Bounds "Mbuf.get_uint8: out of range");
  let rec go i = function
    | [] -> assert false
    | v :: rest ->
        let l = View.length v in
        if i < l then View.get_uint8 v i else go (i - l) rest
  in
  go i t.segs

let fold_segments f init t = List.fold_left f init t.segs

let pp ppf t =
  Format.fprintf ppf "mbuf(len=%d, segs=%d)" t.len (segment_count t)
