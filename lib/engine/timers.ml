type t = {
  sched : Sched.t;
  wheel : Timer_wheel.t;
  mutable tick_armed : bool;
}

type handle = Timer_wheel.handle

let create sched ~granularity =
  { sched; wheel = Timer_wheel.create ~granularity (); tick_armed = false }

let rec ensure_tick t =
  if (not t.tick_armed) && Timer_wheel.pending t.wheel > 0 then begin
    t.tick_armed <- true;
    Sched.after t.sched (Timer_wheel.granularity t.wheel) (fun () ->
        t.tick_armed <- false;
        Timer_wheel.advance_to t.wheel (Sched.now t.sched);
        ensure_tick t)
  end

let arm t d f =
  Timer_wheel.advance_to t.wheel (Sched.now t.sched);
  let h = Timer_wheel.schedule t.wheel ~after:d f in
  ensure_tick t;
  h

let disarm = Timer_wheel.cancel
let pending t = Timer_wheel.pending t.wheel
