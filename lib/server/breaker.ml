type t = {
  lock : Mutex.t;
  outcomes : bool array;
  threshold : float;
  min_samples : int;
  cooldown_s : float;
  mutable filled : int;
  mutable idx : int;
  mutable failures : int;
  mutable open_until : float;
  mutable opened : int;
}

let create ?(window = 32) ?(threshold = 0.5) ?(min_samples = 8)
    ?(cooldown_s = 1.0) () =
  if window < 1 then invalid_arg "Breaker.create: window";
  if min_samples < 1 then invalid_arg "Breaker.create: min_samples";
  {
    lock = Mutex.create ();
    outcomes = Array.make window true;
    threshold;
    min_samples;
    cooldown_s;
    filled = 0;
    idx = 0;
    failures = 0;
    open_until = 0.0;
    opened = 0;
  }

let allow t ~now = Mutex.protect t.lock (fun () -> now >= t.open_until)
let is_open t ~now = not (allow t ~now)
let opened_count t = Mutex.protect t.lock (fun () -> t.opened)

let failure_rate t =
  Mutex.protect t.lock (fun () ->
      if t.filled = 0 then 0.0
      else float_of_int t.failures /. float_of_int t.filled)

let record t ~now ~ok =
  Mutex.protect t.lock (fun () ->
      let window = Array.length t.outcomes in
      if t.filled = window then begin
        if not t.outcomes.(t.idx) then t.failures <- t.failures - 1
      end
      else t.filled <- t.filled + 1;
      t.outcomes.(t.idx) <- ok;
      if not ok then t.failures <- t.failures + 1;
      t.idx <- (t.idx + 1) mod window;
      if
        now >= t.open_until
        && t.filled >= t.min_samples
        && float_of_int t.failures /. float_of_int t.filled >= t.threshold
      then begin
        t.open_until <- now +. t.cooldown_s;
        t.opened <- t.opened + 1;
        (* Start the post-cooldown judgement from a clean window rather
           than re-tripping on the burst that opened the breaker. *)
        t.filled <- 0;
        t.idx <- 0;
        t.failures <- 0;
        `Opened
      end
      else `Stayed)
