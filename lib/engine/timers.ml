(* The tick chain takes its phase from the arm that starts it, and it
   starts only on an idle service: a chain whose live timers have all
   fired or been cancelled is abandoned at once ([chain] moves on, so its
   pending tick event does nothing), not when its next tick finds the
   wheel empty.  A timer armed on an idle service therefore fires its
   delay, rounded up to whole ticks, after its own arm, whatever was
   armed and cancelled before it. *)
type t = {
  sched : Sched.t;
  wheel : Timer_wheel.t;
  mutable chain : int;
}

type handle = Timer_wheel.handle

let create sched ~granularity = { sched; wheel = Timer_wheel.create ~granularity (); chain = 0 }

let rec tick t chain =
  Sched.after t.sched (Timer_wheel.granularity t.wheel) (fun () ->
      if t.chain = chain then begin
        Timer_wheel.advance_to t.wheel (Sched.now t.sched);
        if t.chain = chain && Timer_wheel.live t.wheel > 0 then tick t chain
      end)

let arm t d f =
  Timer_wheel.advance_to t.wheel (Sched.now t.sched);
  let idle = Timer_wheel.live t.wheel = 0 in
  let h = Timer_wheel.schedule t.wheel ~after:d f in
  if idle then begin
    t.chain <- t.chain + 1;
    tick t t.chain
  end;
  h

let disarm = Timer_wheel.cancel
let pending t = Timer_wheel.live t.wheel
