type t = {
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable shutting_down : bool;
}

(* Workers block on [work_available]; a [None] wakeup with [shutting_down]
   set is the exit signal. Jobs never raise: {!run_list} wraps them. *)
let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.lock;
    let rec take () =
      match Queue.take_opt pool.queue with
      | Some job -> Some job
      | None ->
          if pool.shutting_down then None
          else begin
            Condition.wait pool.work_available pool.lock;
            take ()
          end
    in
    let job = take () in
    Mutex.unlock pool.lock;
    match job with
    | None -> ()
    | Some job ->
        job ();
        loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 then invalid_arg "Task_pool.create: domains < 1";
  let pool =
    {
      workers = [||];
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      shutting_down = false;
    }
  in
  (* Never run more domains than the hardware can schedule: oversubscribed
     domains only add stop-the-world minor-GC synchronisation (every
     collection must context-switch through all of them), which on a machine
     with fewer cores than [domains] costs far more than the parallelism
     returns. The coordinator executes whatever the capped worker set does
     not pick up. *)
  let hw = Int.max 1 (Domain.recommended_domain_count ()) in
  let spawned = Int.min (domains - 1) (hw - 1) in
  pool.workers <-
    Array.init spawned (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let run_list pool jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let remaining = ref n in
    let wrap i () =
      let r =
        try Ok (jobs.(i) ())
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock pool.lock;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast pool.batch_done;
      Mutex.unlock pool.lock
    in
    Mutex.lock pool.lock;
    for i = 1 to n - 1 do
      Queue.add (wrap i) pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    (* The coordinator runs the first job, then helps drain the queue and
       finally sleeps until in-flight worker jobs signal completion. *)
    wrap 0 ();
    let rec help () =
      Mutex.lock pool.lock;
      let job = Queue.take_opt pool.queue in
      Mutex.unlock pool.lock;
      match job with
      | Some job ->
          job ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock pool.lock;
    while !remaining > 0 do
      Condition.wait pool.batch_done pool.lock
    done;
    Mutex.unlock pool.lock;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

let shutdown pool =
  Mutex.lock pool.lock;
  pool.shutting_down <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]
