let slots_per_level = 256
let levels = 4

(* A timer knows its wheel so that {!cancel}, given only the handle,
   can keep the wheel's count of live timers. *)
type timer = {
  mutable expiry_tick : int;
  callback : unit -> unit;
  mutable live : bool;
  owner : t;
}

(* The wheel is built as it is used: [wheel] stays [[||]] until the
   first insert, and each level's slot array until the first insert into
   that level.  A connection's wheel usually only ever touches level 0,
   and many never schedule at all.  [pending] counts the entries in the
   slots, cancelled ones included until their slot comes round;
   [live_timers] counts the timers still due to fire. *)
and t = {
  tick_ns : int;
  mutable wheel : timer list array array; (* [level].[slot] *)
  mutable tick : int;
  mutable pending : int;
  mutable live_timers : int;
}

type handle = timer

let create ~granularity () =
  if granularity <= 0 then invalid_arg "Timer_wheel.create: granularity must be positive";
  { tick_ns = granularity; wheel = [||]; tick = 0; pending = 0; live_timers = 0 }

let granularity t = t.tick_ns
let pending t = t.pending
let live t = t.live_timers
let current_tick t = t.tick

(* Level [i] has slot width [slots_per_level^i] ticks and covers deltas up
   to [slots_per_level^(i+1)] ticks. *)
let level_width = Array.init levels (fun i -> int_of_float (float_of_int slots_per_level ** float_of_int i))

let insert t timer =
  let delta = Stdlib.max 1 (timer.expiry_tick - t.tick) in
  let rec find_level i =
    if i = levels - 1 || delta < level_width.(i) * slots_per_level then i else find_level (i + 1)
  in
  let level = find_level 0 in
  let slot = timer.expiry_tick / level_width.(level) mod slots_per_level in
  if Array.length t.wheel = 0 then t.wheel <- Array.make levels [||];
  if Array.length t.wheel.(level) = 0 then t.wheel.(level) <- Array.make slots_per_level [];
  let cells = t.wheel.(level) in
  cells.(slot) <- timer :: cells.(slot)

let schedule t ~after f =
  let delta_ticks = Stdlib.max 1 ((after + t.tick_ns - 1) / t.tick_ns) in
  let timer = { expiry_tick = t.tick + delta_ticks; callback = f; live = true; owner = t } in
  insert t timer;
  t.pending <- t.pending + 1;
  t.live_timers <- t.live_timers + 1;
  timer

let cancel h =
  if h.live then begin
    h.live <- false;
    h.owner.live_timers <- h.owner.live_timers - 1
  end

(* Fire or reinsert everything in a slot.  Timers whose expiry is still in
   the future cascade back in at (possibly) a lower level.  A level that
   was never inserted into has no slots to drain. *)
let drain_slot t level slot =
  let cells = t.wheel.(level) in
  if Array.length cells > 0 then begin
    let entries = cells.(slot) in
    cells.(slot) <- [];
    let handle timer =
      if not timer.live then t.pending <- t.pending - 1
      else if timer.expiry_tick <= t.tick then begin
        timer.live <- false;
        t.pending <- t.pending - 1;
        t.live_timers <- t.live_timers - 1;
        timer.callback ()
      end
      else insert t timer
    in
    List.iter handle (List.rev entries)
  end

let step t =
  t.tick <- t.tick + 1;
  let slot0 = t.tick mod slots_per_level in
  (* When a lower wheel wraps, cascade the next slot of the wheel above. *)
  let rec cascade level =
    if level < levels then begin
      let slot = t.tick / level_width.(level) mod slots_per_level in
      drain_slot t level slot;
      if t.tick mod (level_width.(level) * slots_per_level) = 0 then cascade (level + 1)
    end
  in
  drain_slot t 0 slot0;
  if slot0 = 0 then cascade 1

(* [pending > 0] implies an insert happened, so [step] only runs on a
   wheel whose level array exists. *)
let advance_to t now =
  let target = Time.to_ns now / t.tick_ns in
  if t.pending = 0 then t.tick <- Stdlib.max t.tick target
  else
    while t.tick < target do
      if t.pending = 0 then t.tick <- target else step t
    done
