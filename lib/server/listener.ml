type t = {
  fd : Unix.file_descr;
  port : int;
  lock : Mutex.t;  (** guards the mutable fields *)
  mutable stopping : bool;
  mutable acceptor : Thread.t option;
  mutable conns : (Unix.file_descr * Thread.t) list;
      (** live connections: each thread removes its own entry as it closes
          its descriptor *)
}

let backlog = 64

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg ("unknown host " ^ host))

let bind ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen fd backlog
   with e ->
     Unix.close fd;
     raise e);
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  { fd; port; lock = Mutex.create (); stopping = false; acceptor = None; conns = [] }

let port t = t.port
let connections t = Mutex.protect t.lock (fun () -> List.length t.conns)
let stopping t = Mutex.protect t.lock (fun () -> t.stopping)

(* Close and leave the registry in one section: [close_connections]
   shuts down only descriptors still registered, so never a closed (or
   reused) one. *)
let run t handler fd =
  Fun.protect
    (fun () -> handler fd)
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.conns <- List.filter (fun (c, _) -> c <> fd) t.conns))

let serve ?(on_retry = ignore) t handler =
  let rec loop () =
    match Unix.accept t.fd with
    | fd, _ ->
        Wire.set_nodelay fd;
        (* Registered under the lock the thread's own removal takes, so a
           connection that ends at once is still removed. *)
        let stopping =
          Mutex.protect t.lock (fun () ->
              if not t.stopping then
                t.conns <- (fd, Thread.create (run t handler) fd) :: t.conns;
              t.stopping)
        in
        if stopping then Unix.close fd (* the stop wake-up *) else loop ()
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> retry 0.0
    | exception Unix.Unix_error ((EMFILE | ENFILE | EAGAIN | EWOULDBLOCK), _, _)
      ->
        retry 0.05
    | exception Unix.Unix_error _ -> ()
  and retry delay =
    if not (stopping t) then begin
      on_retry ();
      Thread.delay delay;
      loop ()
    end
  in
  t.acceptor <- Some (Thread.create loop ())

let stop_accepting t =
  let first =
    Mutex.protect t.lock (fun () ->
        let first = not t.stopping in
        t.stopping <- true;
        first)
  in
  if first then begin
    Option.iter
      (fun acceptor ->
        (* Wake the accept thread with a throw-away connection. *)
        (try
           let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
           (try Unix.connect fd (Unix.getsockname t.fd)
            with Unix.Unix_error _ -> ());
           Unix.close fd
         with Unix.Unix_error _ -> ());
        Thread.join acceptor)
      t.acceptor;
    Unix.close t.fd
  end

let close_connections t =
  let conns =
    Mutex.protect t.lock (fun () ->
        List.iter
          (fun (fd, _) ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.conns;
        t.conns)
  in
  List.iter (fun (_, th) -> Thread.join th) conns

let stop t =
  stop_accepting t;
  close_connections t
