(* WAL-shipped replication: a primary-side sender that streams raw log
   bytes to subscribers, and a replica-side applier that catches up from
   a snapshot, tails the log, applies page effects, and acks applied
   LSNs.

   Correctness rests on three invariants:

   - {e Byte identity}: the replica's log file is at all times a
     byte-prefix of some committed prefix of the primary's log. The
     sender reads raw frames through its own fd and the applier appends
     them verbatim (never re-framing), so LSNs coincide and every frame
     re-validates locally.

   - {e Commit-boundary draining}: the applier makes bytes durable only
     through the last [Commit]/[Checkpoint] boundary received
     ({!Storage.Wal_stream.Tail}), so nothing the primary's own recovery
     could truncate ever reaches the replica's disk, and the replica's
     log is clean-ended whenever the applier is between batches — a
     read-only worker can open it at any such moment.

   - {e Epoch fencing}: a monotone epoch is persisted in the manifest
     ([Epoch] records + every checkpoint). Promotion bumps it. A sender
     whose subscriber presents a newer epoch refuses the stream
     ([Rep_fence]) and counts itself fenced; an applier rejects any
     hello/batch carrying an older epoch. A zombie primary can therefore
     never feed bytes to a promoted replica, and a replica can never
     resubscribe to a stale primary — divergence is structurally
     impossible, not just unlikely.

   Snapshot catch-up is taken online, without pausing the primary: copy
   the data file first, then the log up to a commit boundary captured
   {e after} the data copy. Any page being written concurrently was, by
   the WAL rule, touched since the last checkpoint, so the shipped log
   prefix contains its full [Page_image] and redo rebuilds it from the
   log alone — a torn read of the data file is harmless. Pages untouched
   since the last checkpoint are never written concurrently. The replica
   replays the pair with {!Storage.Recovery.recover ~checkpoint:false},
   which keeps the log byte-identical. *)

module Wal = Storage.Wal
module Wal_stream = Storage.Wal_stream
module Eventcount = Storage.Eventcount
module Recovery = Storage.Recovery
module Real_disk = Storage.Real_disk

(* A writer-preference readers/writer lock: replica query workers read
   while the applier (and promotion) writes. Writer preference keeps a
   steady query load from starving the apply loop. *)
module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting : int;
  }

  let create () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      readers = 0;
      writer = false;
      waiting = 0;
    }

  let read_acquire t =
    Mutex.lock t.m;
    while t.writer || t.waiting > 0 do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m

  let read_release t =
    Mutex.lock t.m;
    t.readers <- t.readers - 1;
    if t.readers = 0 then Condition.broadcast t.c;
    Mutex.unlock t.m

  let write_acquire t =
    Mutex.lock t.m;
    t.waiting <- t.waiting + 1;
    while t.writer || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.waiting <- t.waiting - 1;
    t.writer <- true;
    Mutex.unlock t.m

  let write_release t =
    Mutex.lock t.m;
    t.writer <- false;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  let with_read t f =
    read_acquire t;
    Fun.protect ~finally:(fun () -> read_release t) f

  let with_write t f =
    write_acquire t;
    Fun.protect ~finally:(fun () -> write_release t) f
end

let chunk_bytes = 1 lsl 20
let batch_bytes = 256 * 1024
let heartbeat_s = 0.2

(* Every wait in this module blocks on an {!Eventcount} that the awaited
   event notifies: a commit, an ack, an applied batch, a stop. OCaml's
   [Condition] has no timed wait, so heartbeats and waiter deadlines come
   from a ticker instead: one thread per Sender / Replica that notifies
   its eventcounts every [heartbeat_s], started on first use and joined
   by its owner's [stop]. A waiter re-checks its deadline on each tick,
   so it overshoots by at most [heartbeat_s], and gives up once the
   ticker has stopped. *)
module Ticker = struct
  type t = {
    lock : Mutex.t;
    targets : Eventcount.t list;
    mutable thread : Thread.t option;
    mutable stopped : bool;
  }

  let create targets =
    { lock = Mutex.create (); targets; thread = None; stopped = false }

  let stopped t = Mutex.protect t.lock (fun () -> t.stopped)

  let rec run t =
    Thread.delay heartbeat_s;
    if not (stopped t) then begin
      List.iter Eventcount.notify t.targets;
      run t
    end

  let ensure t =
    Mutex.protect t.lock (fun () ->
        if t.thread = None && not t.stopped then
          t.thread <- Some (Thread.create run t))

  (* The last notify lets every waiter see [stopped]. *)
  let stop t =
    let thread =
      Mutex.protect t.lock (fun () ->
          t.stopped <- true;
          let th = t.thread in
          t.thread <- None;
          th)
    in
    List.iter Eventcount.notify t.targets;
    Option.iter Thread.join thread
end

(* The stream id names the log {e file generation}: a checkpoint
   rewrites the log via tmp+rename, resetting every LSN, so a subscriber
   must never splice offsets across generations. Deriving the id from
   the inode (plus device) makes it stable across subscribers and
   changes it exactly at rotation, with no shared counter. *)
let stream_id_of_path path =
  try
    let st = Unix.stat path in
    Int64.logor
      (Int64.shift_left (Int64.of_int st.Unix.st_dev) 48)
      (Int64.logand (Int64.of_int st.Unix.st_ino) 0xFFFFFFFFFFFFL)
  with Unix.Unix_error _ -> 0L

(* ------------------------------------------------------------------ *)
(* Sender (primary side) *)

module Sender = struct
  type source =
    | Live of Wal.t  (** a writable primary's open log *)
    | Static of { static_end : int; static_epoch : int }
        (** a promoted (or load-complete) node's quiescent log *)

  type sub = {
    sub_id : int;
    sub_send : Wire.reply -> unit;  (** serialised per connection; raises
                                        when the peer is gone *)
    sub_from : int;
    sub_stream : int64;
    mutable sub_acked : int;
    mutable sub_alive : bool;
  }

  type t = {
    wal_path : string;
    data_path : string;
    page_size : int;
    source : source;
    lock : Mutex.t;
    subs : (int, sub) Hashtbl.t;
    mutable next_sub : int;
    mutable fenced : int;
        (** subscribe attempts that presented a newer epoch — each one
            is proof this sender is a zombie *)
    mutable snapshots_sent : int;
    mutable stopped : bool;
    events : Eventcount.t;  (** notified by acks, ticks and {!stop} *)
    ticker : Ticker.t;
    mutable listener : Listener.t option;  (** set by {!listen} *)
    mutable threads : Thread.t list;  (** streaming sessions *)
  }

  let epoch t =
    match t.source with
    | Live wal -> Wal.epoch wal
    | Static { static_epoch; _ } -> static_epoch

  (* The shippable end: a commit boundary whose bytes are visible in the
     file ({!Wal.shippable_end}). *)
  let shippable_end t =
    match t.source with
    | Static { static_end; _ } -> static_end
    | Live wal -> Wal.shippable_end wal

  (* What an idle tail waits on: the log's commit signal for a live
     primary; a static log never grows, so only ticks and stops. *)
  let tail_events t =
    match t.source with Live wal -> Wal.shipped wal | Static _ -> t.events

  let make ~wal_path ~data_path ~page_size ~source =
    let events = Eventcount.create () in
    let ticks =
      match source with Live wal -> [ events; Wal.shipped wal ] | Static _ -> [ events ]
    in
    {
      wal_path;
      data_path;
      page_size;
      source;
      lock = Mutex.create ();
      subs = Hashtbl.create 4;
      next_sub = 1;
      fenced = 0;
      snapshots_sent = 0;
      stopped = false;
      events;
      ticker = Ticker.create ticks;
      listener = None;
      threads = [];
    }

  (* A primary that has never been part of a replicated pair carries
     epoch 0; adopt epoch 1 on first use so "epoch 0" always reads as
     "replication never enabled" in metrics, and the first promotion
     lands on 2. *)
  let create ~env =
    match (Storage.Env.wal env, Storage.Disk.as_real env.Storage.Env.disk) with
    | Some wal, Some disk ->
        if (not (Wal.readonly wal)) && Wal.epoch wal = 0 then begin
          Wal.log_epoch wal 1;
          Wal.commit wal
        end;
        make ~wal_path:(Wal.path wal) ~data_path:(Real_disk.path disk)
          ~page_size:(Real_disk.page_size disk) ~source:(Live wal)
    | _ -> invalid_arg "Replication.Sender.create: environment not durable"

  let create_for_dir ~dir =
    let wal_path = Recovery.wal_path_of dir in
    match Wal_stream.committed_state ~path:wal_path with
    | Error msg -> invalid_arg ("Replication.Sender.create_for_dir: " ^ msg)
    | Ok (static_end, static_epoch) ->
        let stats = Storage.Iostats.create () in
        let disk = Real_disk.open_existing ~readonly:true ~dir stats in
        let page_size = Real_disk.page_size disk in
        let data_path = Real_disk.path disk in
        Real_disk.close disk;
        make ~wal_path ~data_path ~page_size
          ~source:(Static { static_end; static_epoch })

  let stream_id t = stream_id_of_path t.wal_path

  let sub_dead t sub =
    Mutex.protect t.lock (fun () -> sub.sub_alive <- false)

  (* Stream one file region as snapshot chunks through [send]. *)
  let send_chunks sub ~kind ~path ~upto =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let buf = Bytes.create chunk_bytes in
        let rec go off =
          if off < upto then begin
            let want = min chunk_bytes (upto - off) in
            let got =
              let rec read_some () =
                try Unix.read fd buf 0 want
                with Unix.Unix_error (Unix.EINTR, _, _) -> read_some ()
              in
              read_some ()
            in
            if got = 0 then
              failwith (Printf.sprintf "%s shrank below %d" path upto);
            sub.sub_send
              (Wire.Rep_chunk
                 {
                   kind;
                   off;
                   data = Bytes.sub_string buf 0 got;
                 });
            go (off + got)
          end
        in
        go 0)

  (* One subscriber's streaming session. Runs on its own thread; every
     [sub_send] failure (peer gone) or sender stop ends it. *)
  let rec session t sub ~first =
    let sid = stream_id t in
    let e = shippable_end t in
    if
      first && Int64.equal sub.sub_stream sid
      && sub.sub_from >= Wal.header_size
      && sub.sub_from <= e
    then begin
      (* The subscriber tailed this very file generation before: resume
         without a snapshot. *)
      sub.sub_send
        (Wire.Rep_hello
           {
             epoch = epoch t;
             stream_id = sid;
             page_size = t.page_size;
             snapshot = false;
             start_lsn = sub.sub_from;
             data_len = 0;
           });
      tail t sub ~pos:sub.sub_from
    end
    else snapshot t sub ~sid

  and snapshot t sub ~sid =
    Mutex.protect t.lock (fun () -> t.snapshots_sent <- t.snapshots_sent + 1);
    let data_len =
      try (Unix.stat t.data_path).Unix.st_size with Unix.Unix_error _ -> 0
    in
    sub.sub_send
      (Wire.Rep_hello
         {
           epoch = epoch t;
           stream_id = sid;
           page_size = t.page_size;
           snapshot = true;
           start_lsn = 0;
           data_len;
         });
    (* Data first, then the log up to a boundary captured AFTER the data
       copy: every page racing the copy is then covered by a full image
       in the shipped log prefix (see the module comment). *)
    if data_len > 0 then
      send_chunks sub ~kind:Wire.Data_chunk ~path:t.data_path ~upto:data_len;
    if not (Int64.equal (stream_id t) sid) then
      (* rotated mid-copy: every LSN we were about to ship is dead *)
      session t sub ~first:false
    else begin
      let e = shippable_end t in
      send_chunks sub ~kind:Wire.Wal_chunk ~path:t.wal_path ~upto:e;
      if not (Int64.equal (stream_id t) sid) then session t sub ~first:false
      else begin
        (* Empty batch = snapshot-complete marker; its [start_lsn] tells
           the applier where the tail begins. *)
        sub.sub_send
          (Wire.Rep_wal
             { epoch = epoch t; start_lsn = e; primary_end = e; data = "" });
        tail t sub ~pos:e
      end
    end

  and tail t sub ~pos =
    let cur = Wal_stream.Cursor.open_at ~path:t.wal_path ~pos in
    let events = tail_events t in
    let restart =
      Fun.protect
        ~finally:(fun () -> Wal_stream.Cursor.close cur)
        (fun () ->
          let last_sent = ref (Unix.gettimeofday ()) in
          let send_wal ~pos ~e data =
            sub.sub_send
              (Wire.Rep_wal
                 { epoch = epoch t; start_lsn = pos; primary_end = e; data });
            last_sent := Unix.gettimeofday ()
          in
          let rec loop pos =
            (* Read the count before looking, so an event that lands
               after the checks still ends the wait below. *)
            let seen = Eventcount.current events in
            if t.stopped || not sub.sub_alive then false
            else if Wal_stream.Cursor.rotated cur then true
            else begin
              let e = shippable_end t in
              let data =
                if pos < e then Wal_stream.Cursor.read cur ~upto:e ~max:batch_bytes
                else Bytes.empty
              in
              let n = Bytes.length data in
              if n > 0 then begin
                send_wal ~pos ~e (Bytes.unsafe_to_string data);
                loop (pos + n)
              end
              else begin
                (* Idle — or the file shows less than the boundary, which
                   only happens across a rotation. Either way the next
                   commit, rotation or tick wakes us. A tick finding the
                   stream quiet for half a period sends a heartbeat, so an
                   idle replica hears from us every [heartbeat_s]. *)
                if pos >= e && Unix.gettimeofday () -. !last_sent >= heartbeat_s /. 2.
                then
                  send_wal ~pos ~e "";
                Eventcount.await events ~seen;
                loop pos
              end
            end
          in
          loop pos)
    in
    if restart && (not t.stopped) && sub.sub_alive then
      session t sub ~first:false

  (* Handle one [Rep_subscribe]: returns [Some sub_id] and starts the
     streaming thread, or [None] after fencing the subscriber (its epoch
     is newer — we are the zombie). *)
  let serve t ~epoch:sub_epoch ~stream_id:sub_stream ~from_lsn ~send =
    let my_epoch = epoch t in
    if sub_epoch > my_epoch then begin
      Mutex.protect t.lock (fun () -> t.fenced <- t.fenced + 1);
      (try send (Wire.Rep_fence { epoch = my_epoch })
       with _ -> ());
      None
    end
    else begin
      let sub =
        Mutex.protect t.lock (fun () ->
            let id = t.next_sub in
            t.next_sub <- id + 1;
            let sub =
              {
                sub_id = id;
                sub_send = send;
                sub_from = from_lsn;
                sub_stream;
                sub_acked = 0;
                sub_alive = true;
              }
            in
            Hashtbl.replace t.subs id sub;
            sub)
      in
      let th =
        Thread.create
          (fun () ->
            (try session t sub ~first:true with
            | Wire.Connection_closed | Unix.Unix_error _ | Sys_error _
            | Failure _ ->
                ());
            sub_dead t sub)
          ()
      in
      Mutex.protect t.lock (fun () -> t.threads <- th :: t.threads);
      Ticker.ensure t.ticker;
      Some sub.sub_id
    end

  let ack t ~id ~applied_lsn =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.subs id with
        | Some sub -> if applied_lsn > sub.sub_acked then sub.sub_acked <- applied_lsn
        | None -> ());
    Eventcount.notify t.events

  let drop t ~id =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.subs id with
        | Some sub ->
            sub.sub_alive <- false;
            Hashtbl.remove t.subs id
        | None -> ());
    (* the dropped subscriber's tail may be parked idle *)
    Eventcount.notify (tail_events t)

  let connected t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub n -> if sub.sub_alive then n + 1 else n)
          t.subs 0)

  (* Worst-case acked LSN over live subscribers (min), for the lag
     gauge; [None] with no live subscriber. *)
  let min_acked t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub acc ->
            if not sub.sub_alive then acc
            else
              match acc with
              | None -> Some sub.sub_acked
              | Some a -> Some (min a sub.sub_acked))
          t.subs None)

  let max_acked t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub acc -> max acc sub.sub_acked)
          t.subs 0)

  let lag_bytes t =
    match min_acked t with
    | None -> 0
    | Some a -> max 0 (shippable_end t - a)

  let fenced t = Mutex.protect t.lock (fun () -> t.fenced)
  let snapshots_sent t = Mutex.protect t.lock (fun () -> t.snapshots_sent)

  (* Semi-synchronous commit: block until some replica has applied (and
     fsynced) through [lsn]. The chaos harness acks its writer's
     progress only after this returns, which is what makes
     "zero acknowledged-commit loss" a theorem rather than a race. *)
  let wait_applied t ~lsn ~timeout_s =
    Ticker.ensure t.ticker;
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      let seen = Eventcount.current t.events in
      if max_acked t >= lsn then true
      else if Unix.gettimeofday () >= deadline || t.stopped then false
      else begin
        Eventcount.await t.events ~seen;
        go ()
      end
    in
    go ()

  (* One connection's replication requests: the subscriber it started,
     if any, and how to write to it. *)
  type peer = { send : Wire.reply -> unit; mutable peer_sub : int option }

  let peer ~send = { send; peer_sub = None }

  let handle t p = function
    | Wire.Rep_subscribe { epoch; stream_id; from_lsn } ->
        p.peer_sub <- serve t ~epoch ~stream_id ~from_lsn ~send:p.send
    | Wire.Rep_ack { epoch = _; applied_lsn } ->
        Option.iter (fun id -> ack t ~id ~applied_lsn) p.peer_sub
    | _ -> ()

  let disconnect t p = Option.iter (fun id -> drop t ~id) p.peer_sub

  (* A replication-only server, for primaries that are not full daemons
     (the chaos harness's victim process, perfbench's primary). A
     streaming session writes from its own thread, so once the
     connection has ended its sends raise instead of reaching a closed
     (or reused) descriptor. *)
  let listen ?host ~port t =
    let l = Listener.bind ?host ~port () in
    t.listener <- Some l;
    Listener.serve l (fun fd ->
        let wlock = Mutex.create () and closed = ref false in
        let send r =
          Mutex.protect wlock (fun () ->
              if !closed then raise Wire.Connection_closed;
              Wire.write_reply fd r)
        in
        let p = peer ~send in
        let rd = Wire.reader fd in
        (try
           while true do
             handle t p (Wire.read_request rd)
           done
         with
        | Wire.Connection_closed | Wire.Protocol_error _ | Unix.Unix_error _ ->
            ());
        Mutex.protect wlock (fun () -> closed := true);
        disconnect t p);
    Listener.port l

  let stop t =
    t.stopped <- true;
    let subs = Mutex.protect t.lock (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.subs []) in
    List.iter (fun s -> s.sub_alive <- false) subs;
    (* Its last notify wakes idle tails and [wait_applied] callers. *)
    Ticker.stop t.ticker;
    (* Shutting the connections down unblocks reader threads parked on
       idle replicas and sessions blocked in a write. *)
    Option.iter Listener.stop t.listener;
    let threads = Mutex.protect t.lock (fun () -> t.threads) in
    List.iter Thread.join threads
end

(* ------------------------------------------------------------------ *)
(* Replica (applier side) *)

module Replica = struct
  exception Fenced of int
  (** the stream carried epoch [e] older than ours — stale primary *)

  exception Resync
  (** stream discontinuity — drop the connection, subscribe afresh *)

  type t = {
    dir : string;
    host : string;
    port : int;
    stats : Storage.Iostats.t;
    rw : Rw.t;
    lock : Mutex.t;
    mutable epoch : int;
    mutable applied : int;  (** applied + fsynced through this LSN *)
    mutable primary_end : int;  (** last shippable end heard *)
    mutable generation : int;
        (** bumped per applied batch (and at promotion): workers rebuild
            their environments when it moves *)
    mutable last_caught_up : float;  (** 0.0 = never *)
    mutable connected : bool;
    mutable synced : bool;  (** first catch-up complete *)
    mutable fenced_rejects : int;
        (** frames/hellos rejected for carrying an older epoch *)
    mutable snapshots : int;
    mutable stream : int64;  (** last stream generation tailed *)
    mutable stopping : bool;
    mutable promoted : bool;
    events : Eventcount.t;  (** notified per applied batch, promotion, stop *)
    ticker : Ticker.t;
    mutable client : Client.t option;
    mutable thread : Thread.t option;
    mutable disk : Real_disk.t option;  (** writable apply handle *)
    mutable appender : Wal_stream.Appender.t option;
  }

  let create ~dir ~primary () =
    let host, port =
      match String.rindex_opt primary ':' with
      | None ->
          invalid_arg
            ("Replication.Replica.create: expected HOST:PORT, got " ^ primary)
      | Some i -> (
          let host = String.sub primary 0 i in
          let port_s =
            String.sub primary (i + 1) (String.length primary - i - 1)
          in
          match int_of_string_opt port_s with
          | Some p when p > 0 && p < 65536 ->
              ((if host = "" then "127.0.0.1" else host), p)
          | _ ->
              invalid_arg
                ("Replication.Replica.create: bad port in " ^ primary))
    in
    let events = Eventcount.create () in
    {
      dir;
      host;
      port;
      stats = Storage.Iostats.create ();
      rw = Rw.create ();
      lock = Mutex.create ();
      epoch = 0;
      applied = 0;
      primary_end = 0;
      generation = 0;
      last_caught_up = 0.0;
      connected = false;
      synced = false;
      fenced_rejects = 0;
      snapshots = 0;
      stream = 0L;
      stopping = false;
      promoted = false;
      events;
      ticker = Ticker.create [ events ];
      client = None;
      thread = None;
      disk = None;
      appender = None;
    }

  let close_handles t =
    (match t.appender with
    | Some a ->
        Wal_stream.Appender.close a;
        t.appender <- None
    | None -> ());
    match t.disk with
    | Some d ->
        (try Real_disk.close d with _ -> ());
        t.disk <- None
    | None -> ()

  (* Bring the local directory to a clean, applied state and open the
     apply handles. Returns the local committed boundary. Runs with
     [~checkpoint:false]: the local log must stay a byte-prefix of the
     primary's. *)
  let open_local t =
    close_handles t;
    let disk, wal, _report =
      Recovery.recover ~checkpoint:false ~dir:t.dir t.stats
    in
    let boundary = Wal.committed_end wal in
    let epoch = Wal.epoch wal in
    Wal.close wal;
    t.disk <- Some disk;
    t.appender <- Some (Wal_stream.Appender.open_at ~path:(Recovery.wal_path_of t.dir));
    Mutex.protect t.lock (fun () ->
        if epoch > t.epoch then t.epoch <- epoch;
        t.applied <- boundary);
    boundary

  (* Redo one shipped record against the replica's data file, through
     recovery's own record-to-page function: pages already reflect every
     earlier record, so an append reads the page from disk. *)
  let apply_record t disk psize = function
    | Wal.Epoch { epoch } ->
        Mutex.protect t.lock (fun () -> if epoch > t.epoch then t.epoch <- epoch)
    | r -> (
        match Recovery.redo_record ~psize ~image:(Real_disk.read disk) r with
        | Some (page, img) ->
            Real_disk.ensure_pages disk (page + 1);
            Real_disk.write ~lsn:0 disk page img
        | None -> ())

  (* Apply one drained batch under the write lock: log bytes first
     (append + fsync — the durability point the ack reports), then the
     page effects, then [applied] and [generation], so a reader never
     sees the new data under the old generation. A crash between the
     first two is safe: local recovery replays the freshly-appended
     records. *)
  let apply_batch t (d : Wal_stream.Tail.drained) =
    let disk =
      match t.disk with
      | Some d -> d
      | None -> failwith "replica: no disk handle"
    in
    let appender =
      match t.appender with
      | Some a -> a
      | None -> failwith "replica: no appender"
    in
    let psize = Real_disk.page_size disk in
    Rw.with_write t.rw (fun () ->
        Wal_stream.Appender.append appender d.Wal_stream.Tail.bytes;
        Wal_stream.Appender.fsync appender;
        List.iter
          (fun (_, r) -> apply_record t disk psize r)
          d.Wal_stream.Tail.records;
        Mutex.protect t.lock (fun () ->
            t.applied <- d.Wal_stream.Tail.new_end;
            t.generation <- t.generation + 1;
            t.synced <- true));
    Eventcount.notify t.events

  (* Snapshot reception state: the two .sync files being filled. *)
  type snap = {
    mutable d_fd : Unix.file_descr option;
    mutable d_off : int;
    mutable w_fd : Unix.file_descr option;
    mutable w_off : int;
  }

  let snap_close s =
    (match s.d_fd with
    | Some fd -> ( (try Unix.close fd with Unix.Unix_error _ -> ()); s.d_fd <- None)
    | None -> ());
    match s.w_fd with
    | Some fd -> ( (try Unix.close fd with Unix.Unix_error _ -> ()); s.w_fd <- None)
    | None -> ()

  (* Swap the received snapshot into place, replay it and move the
     generation, all under the write lock, so no reader sees the
     directory mid-swap or the new files under the old generation;
     readers hold fds on the old files, which rename leaves intact. *)
  let finish_snapshot t snap ~tail_start =
    let data_path = Real_disk.path_of t.dir in
    let wal_path = Recovery.wal_path_of t.dir in
    (match (snap.d_fd, snap.w_fd) with
    | Some dfd, Some wfd ->
        Unix.fsync dfd;
        Unix.fsync wfd
    | _ -> raise Resync);
    snap_close snap;
    if snap.w_off <> tail_start then raise Resync;
    Rw.with_write t.rw (fun () ->
        close_handles t;
        Unix.rename (data_path ^ ".sync") data_path;
        Unix.rename (wal_path ^ ".sync") wal_path;
        Storage.Fd_io.fsync_dir t.dir;
        let boundary = open_local t in
        Mutex.protect t.lock (fun () ->
            t.generation <- t.generation + 1;
            if boundary = tail_start then begin
              t.synced <- true;
              t.snapshots <- t.snapshots + 1
            end);
        if boundary <> tail_start then raise Resync);
    Eventcount.notify t.events

  let send_ack t client =
    let epoch, applied = Mutex.protect t.lock (fun () -> (t.epoch, t.applied)) in
    Client.send client (Wire.Rep_ack { epoch; applied_lsn = applied })

  let note_progress t ~primary_end =
    Mutex.protect t.lock (fun () ->
        t.primary_end <- max t.primary_end primary_end;
        t.connected <- true;
        if t.applied >= t.primary_end then t.last_caught_up <- Unix.gettimeofday ())

  (* One connection's lifetime: subscribe, then process the stream until
     it ends. Raises [Fenced]/[Resync]/[Wire.Connection_closed]. *)
  let session t =
    let have_local =
      Sys.file_exists (Recovery.wal_path_of t.dir) && Real_disk.exists ~dir:t.dir
    in
    let boundary = if have_local then open_local t else 0 in
    let client =
      Client.connect ~host:t.host ~timeout_ms:2000 ~port:t.port ()
    in
    t.client <- Some client;
    Fun.protect
      ~finally:(fun () ->
        t.client <- None;
        Client.close client)
      (fun () ->
        let epoch, stream = Mutex.protect t.lock (fun () -> (t.epoch, t.stream)) in
        Client.send client
          (Wire.Rep_subscribe
             { epoch; stream_id = stream; from_lsn = (if have_local then boundary else 0) });
        let mode = ref `Hello in
        let tail = ref None in
        let rec loop () =
          if t.stopping || t.promoted then ()
          else begin
            (match Client.recv client with
            | Wire.Rep_fence { epoch = their_epoch } ->
                Mutex.protect t.lock (fun () ->
                    t.fenced_rejects <- t.fenced_rejects + 1);
                raise (Fenced their_epoch)
            | Wire.Rep_hello { epoch; stream_id; snapshot; _ } ->
                if epoch < Mutex.protect t.lock (fun () -> t.epoch) then begin
                  Mutex.protect t.lock (fun () ->
                      t.fenced_rejects <- t.fenced_rejects + 1);
                  raise (Fenced epoch)
                end;
                Mutex.protect t.lock (fun () ->
                    if epoch > t.epoch then t.epoch <- epoch;
                    t.stream <- stream_id);
                if snapshot then begin
                  let data_path = Real_disk.path_of t.dir in
                  let wal_path = Recovery.wal_path_of t.dir in
                  if not (Sys.file_exists t.dir) then Unix.mkdir t.dir 0o755;
                  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
                  mode :=
                    `Snap
                      {
                        d_fd = Some (Unix.openfile (data_path ^ ".sync") flags 0o644);
                        d_off = 0;
                        w_fd = Some (Unix.openfile (wal_path ^ ".sync") flags 0o644);
                        w_off = 0;
                      }
                end
                else begin
                  if not have_local then raise Resync;
                  tail := Some (Wal_stream.Tail.create ~start_lsn:boundary);
                  mode := `Tail
                end
            | Wire.Rep_chunk { kind; off; data } -> (
                match !mode with
                | `Snap s -> (
                    let write fd_opt expected =
                      match fd_opt with
                      | Some fd when off = expected ->
                          Storage.Fd_io.write_all fd
                            (Bytes.unsafe_of_string data) 0 (String.length data)
                      | _ -> raise Resync
                    in
                    match kind with
                    | Wire.Data_chunk ->
                        write s.d_fd s.d_off;
                        s.d_off <- s.d_off + String.length data
                    | Wire.Wal_chunk ->
                        write s.w_fd s.w_off;
                        s.w_off <- s.w_off + String.length data)
                | _ -> raise Resync)
            | Wire.Rep_wal { epoch; start_lsn; primary_end; data } ->
                if epoch < Mutex.protect t.lock (fun () -> t.epoch) then begin
                  Mutex.protect t.lock (fun () ->
                      t.fenced_rejects <- t.fenced_rejects + 1);
                  raise (Fenced epoch)
                end;
                Mutex.protect t.lock (fun () ->
                    if epoch > t.epoch then t.epoch <- epoch);
                (match !mode with
                | `Snap s ->
                    (* first batch = snapshot-complete marker *)
                    finish_snapshot t s ~tail_start:start_lsn;
                    tail := Some (Wal_stream.Tail.create ~start_lsn);
                    mode := `Tail;
                    send_ack t client
                | `Tail -> ()
                | `Hello -> raise Resync);
                (match !tail with
                | None -> raise Resync
                | Some tl ->
                    if String.length data > 0 then begin
                      if start_lsn <> Wal_stream.Tail.expected tl then
                        raise Resync;
                      Wal_stream.Tail.feed tl (Bytes.of_string data);
                      match Wal_stream.Tail.drain tl with
                      | Error msg -> failwith msg
                      | Ok None -> ()
                      | Ok (Some d) ->
                          apply_batch t d;
                          send_ack t client
                    end);
                note_progress t ~primary_end
            | _ -> raise Resync);
            loop ()
          end
        in
        loop ())

  let applier t =
    let backoff = ref 0.1 in
    while not (t.stopping || t.promoted) do
      (match session t with
      | () -> ()
      | exception Fenced _ ->
          (* A stale primary: keep retrying slowly — it may get
             restarted as a replica of the new primary, and meanwhile
             every attempt re-proves the fence for observability. *)
          backoff := 1.0
      | exception Resync ->
          (* force a snapshot next time *)
          Mutex.protect t.lock (fun () -> t.stream <- 0L);
          backoff := min 1.0 (!backoff *. 2.0)
      | exception
          ( Wire.Connection_closed | Wire.Protocol_error _
          | Unix.Unix_error _ | Client.Connect_timeout | Sys_error _
          | Failure _ | Recovery.Corrupt _ ) ->
          backoff := min 1.0 (!backoff *. 2.0));
      Mutex.protect t.lock (fun () -> t.connected <- false);
      if not (t.stopping || t.promoted) then begin
        Unix.sleepf !backoff;
        (* successful sessions reset the backoff on next connect *)
        if !backoff > 0.8 then backoff := 0.5
      end
    done;
    Mutex.protect t.lock (fun () -> t.connected <- false)

  let start t =
    match t.thread with
    | Some _ -> ()
    | None -> t.thread <- Some (Thread.create applier t)

  let wait_synced ?(timeout_s = 30.0) t =
    Ticker.ensure t.ticker;
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go () =
      let seen = Eventcount.current t.events in
      if Mutex.protect t.lock (fun () -> t.synced) then true
      else if Unix.gettimeofday () >= deadline || Ticker.stopped t.ticker then
        false
      else begin
        Eventcount.await t.events ~seen;
        go ()
      end
    in
    go ()

  let dir t = t.dir
  let generation t = Mutex.protect t.lock (fun () -> t.generation)
  let applied_lsn t = Mutex.protect t.lock (fun () -> t.applied)
  let epoch t = Mutex.protect t.lock (fun () -> t.epoch)
  let connected t = Mutex.protect t.lock (fun () -> t.connected)
  let fenced_rejects t = Mutex.protect t.lock (fun () -> t.fenced_rejects)
  let snapshots t = Mutex.protect t.lock (fun () -> t.snapshots)

  let lag_bytes t =
    Mutex.protect t.lock (fun () -> max 0 (t.primary_end - t.applied))

  (* Milliseconds since the replica last observed itself caught up to
     the primary's shippable end. Heartbeats refresh it every ~200 ms
     while connected and idle, so a healthy replica reads near zero;
     infinity before the first catch-up. *)
  let stale_ms t =
    Mutex.protect t.lock (fun () ->
        if t.promoted then 0.0
        else if t.last_caught_up = 0.0 then infinity
        else (Unix.gettimeofday () -. t.last_caught_up) *. 1000.0)

  let with_read t f = Rw.with_read t.rw f

  let stop_applier t =
    t.stopping <- true;
    (match t.client with
    | Some c -> (
        try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.thread with
    | Some th ->
        (try Thread.join th with _ -> ());
        t.thread <- None
    | None -> ())

  (* Promotion: stop tailing, make the local state a self-sufficient
     primary. Recovery truncates any torn tail (there is never an
     unapplied committed one — drains stop at boundaries), replays, and
     checkpoints; then the epoch bump is committed. After this returns,
     the old primary's frames carry a stale epoch and are rejected
     everywhere — it is fenced. *)
  let promote t =
    let already = Mutex.protect t.lock (fun () -> t.promoted) in
    if already then Mutex.protect t.lock (fun () -> t.epoch)
    else begin
      stop_applier t;
      let new_epoch =
        Rw.with_write t.rw (fun () ->
            close_handles t;
            let disk, wal, _report = Recovery.recover ~dir:t.dir t.stats in
            let e = Wal.epoch wal + 1 in
            Wal.log_epoch wal e;
            Wal.commit wal;
            Wal.close wal;
            Real_disk.close disk;
            Mutex.protect t.lock (fun () ->
                t.epoch <- e;
                t.promoted <- true;
                t.synced <- true;
                t.generation <- t.generation + 1);
            e)
      in
      Eventcount.notify t.events;
      new_epoch
    end

  let promoted t = Mutex.protect t.lock (fun () -> t.promoted)

  let stop t =
    stop_applier t;
    Ticker.stop t.ticker;
    Rw.with_write t.rw (fun () -> close_handles t)
end
