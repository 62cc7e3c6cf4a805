type t = { lock : Mutex.t; moved : Condition.t; mutable count : int }

let create () = { lock = Mutex.create (); moved = Condition.create (); count = 0 }

let current t = Mutex.protect t.lock (fun () -> t.count)

let notify t =
  Mutex.protect t.lock (fun () ->
      t.count <- t.count + 1;
      Condition.broadcast t.moved)

let await t ~seen =
  Mutex.protect t.lock (fun () ->
      while t.count = seen do
        Condition.wait t.moved t.lock
      done)
