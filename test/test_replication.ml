(** Tests of WAL-shipped replication (PR 10): the storage-level shipping
    primitives ({!Frepro.Storage.Wal_stream}), the sender/replica pair
    over a real localhost socket, epoch fencing in both directions,
    promotion, the rev-3 wire frames, and the byte-for-byte rev-2
    interop guarantee. *)

open Frepro.Storage
open Frepro.Relational
module Server = Frepro.Server
module Replication = Server.Replication

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "frepro-rep-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_dir2 f = with_dir (fun a -> with_dir (fun b -> f a b))

(* ------------------------------------------------------------------ *)
(* Workload helpers *)

let schema = Schema.make ~name:"K" [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let tup i x d =
  Ftuple.make [| Value.Int i; Value.crisp_num (float_of_int x) |] d

let batch ~seed ~start n =
  let rng = Random.State.make [| 0xEE1; seed |] in
  List.init n (fun k ->
      tup (start + k)
        (Random.State.int rng 1000)
        (0.125 *. float_of_int (1 + ((start + k + seed) mod 8))))

let raw_records rel = Test_util.records (Relation.file rel)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let open_primary dir =
  Env.open_durable ~dir ~page_size:512 ~pool_pages:256 ~wal_sync:Wal.Always ()

(* ------------------------------------------------------------------ *)
(* Wal_stream: cursor, tail, appender, committed_state *)

let wal_stream_tests =
  [
    tc "cursor reads the live log byte-identically and detects rotation"
      `Quick (fun () ->
        with_dir (fun dir ->
            let env = open_primary dir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:1 ~start:0 25);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let cur =
              Wal_stream.Cursor.open_at ~path:(Wal.path wal)
                ~pos:Wal.header_size
            in
            let buf = Buffer.create 256 in
            let rec pump () =
              (* Tiny [max] exercises the positioned-read loop. *)
              let b = Wal_stream.Cursor.read cur ~upto:e ~max:97 in
              if Bytes.length b > 0 then begin
                Buffer.add_bytes buf b;
                pump ()
              end
            in
            pump ();
            let whole = read_file (Wal.path wal) in
            Alcotest.(check string)
              "cursor bytes = file bytes [header, committed_end)"
              (String.sub whole Wal.header_size (e - Wal.header_size))
              (Buffer.contents buf);
            Alcotest.(check int) "cursor position" e
              (Wal_stream.Cursor.pos cur);
            Alcotest.(check bool) "not rotated yet" false
              (Wal_stream.Cursor.rotated cur);
            (* Checkpoint rewrites the log via tmp+rename: same path, new
               inode — the cursor must notice. *)
            Env.flush env;
            Wal.checkpoint wal;
            Alcotest.(check bool) "rotation detected" true
              (Wal_stream.Cursor.rotated cur);
            Wal_stream.Cursor.reopen cur ~pos:Wal.header_size;
            Alcotest.(check bool) "reopen follows the new inode" false
              (Wal_stream.Cursor.rotated cur);
            Wal_stream.Cursor.close cur;
            Env.close env));
    tc "tail releases commit-bounded prefixes; appender preserves bytes"
      `Quick (fun () ->
        with_dir2 (fun a b ->
            let env = open_primary a in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:2 ~start:0 9);
            Env.commit env;
            List.iter (Relation.insert rel) (batch ~seed:3 ~start:9 14);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let whole = read_file (Wal.path wal) in
            let shipped = String.sub whole Wal.header_size (e - Wal.header_size) in
            (* Feed in 7-byte pieces plus a trailing partial frame that
               must stay buffered, draining after every feed. *)
            let tail = Wal_stream.Tail.create ~start_lsn:Wal.header_size in
            let out = Buffer.create 256 in
            let commits = ref 0 and last_end = ref Wal.header_size in
            let drain () =
              match Wal_stream.Tail.drain tail with
              | Error m -> Alcotest.fail ("tail rejected valid bytes: " ^ m)
              | Ok None -> ()
              | Ok (Some d) ->
                  Buffer.add_bytes out d.Wal_stream.Tail.bytes;
                  last_end := d.Wal_stream.Tail.new_end;
                  List.iter
                    (fun (_, r) ->
                      match r with
                      | Wal.Commit -> incr commits
                      | _ -> ())
                    d.Wal_stream.Tail.records
            in
            let n = String.length shipped in
            let i = ref 0 in
            while !i < n do
              let k = min 7 (n - !i) in
              Wal_stream.Tail.feed tail (Bytes.of_string (String.sub shipped !i k));
              drain ();
              i := !i + k
            done;
            (* A partial frame beyond the last commit stays buffered. *)
            Wal_stream.Tail.feed tail (Bytes.of_string "\x40\x00\x00\x00\x05");
            drain ();
            Alcotest.(check int) "drained exactly to committed_end" e !last_end;
            Alcotest.(check int) "next wanted byte = committed_end + partial" (e + 5)
              (Wal_stream.Tail.expected tail);
            Alcotest.(check string) "drained bytes verbatim" shipped
              (Buffer.contents out);
            Alcotest.(check int) "both commit boundaries seen" 2 !commits;
            (* Append the drained bytes behind a copied header: the
               replica-side file must re-validate with the identical
               committed state. *)
            let rpath = Filename.concat b "wal.fsql" in
            (try Unix.mkdir b 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let fd =
              Unix.openfile rpath [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
            in
            let hdr = Bytes.of_string (String.sub whole 0 Wal.header_size) in
            assert (Unix.write fd hdr 0 Wal.header_size = Wal.header_size);
            Unix.close fd;
            let ap = Wal_stream.Appender.open_at ~path:rpath in
            Alcotest.(check int) "appender starts at header" Wal.header_size
              (Wal_stream.Appender.end_lsn ap);
            Wal_stream.Appender.append ap (Buffer.to_bytes out);
            Wal_stream.Appender.fsync ap;
            Wal_stream.Appender.close ap;
            (match Wal_stream.committed_state ~path:rpath with
            | Ok (ce, ep) ->
                Alcotest.(check int) "replayed committed_end" e ce;
                Alcotest.(check int) "epoch (never promoted)" 0 ep
            | Error m -> Alcotest.fail m);
            Alcotest.(check string) "file prefix byte-identical"
              (String.sub whole 0 e) (read_file rpath);
            Env.close env));
    tc "committed_state: torn tails and uncommitted epochs do not bind"
      `Quick (fun () ->
        with_dir (fun dir ->
            let env = open_primary dir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:4 ~start:0 12);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let path = Wal.path wal in
            (* An epoch record with no commit point after it... *)
            Wal.log_epoch wal 5;
            Env.crash env;
            (* ...plus garbage appended by a dying process. *)
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            let junk = Bytes.of_string "\xde\xad\xbe\xef\x00\x17" in
            assert (Unix.write fd junk 0 (Bytes.length junk) = Bytes.length junk);
            Unix.close fd;
            (match Wal_stream.committed_state ~path with
            | Ok (ce, ep) ->
                Alcotest.(check int) "boundary unmoved" e ce;
                Alcotest.(check int) "uncommitted epoch invisible" 0 ep
            | Error m -> Alcotest.fail m);
            (* Once a commit point covers it, the epoch binds. *)
            let env2 = Env.open_durable ~dir () in
            let wal2 = Option.get (Env.wal env2) in
            Wal.log_epoch wal2 5;
            Wal.commit wal2;
            Env.crash env2;
            (match Wal_stream.committed_state ~path with
            | Ok (_, ep) -> Alcotest.(check int) "committed epoch binds" 5 ep
            | Error m -> Alcotest.fail m)));
  ]

(* ------------------------------------------------------------------ *)
(* Sender <-> Replica over localhost *)

let addr_of port = "127.0.0.1:" ^ string_of_int port

let e2e_tests =
  [
    tc "replica catch-up is byte-identical; semi-sync ack; lag books"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:7 ~start:0 30);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "initial catch-up (snapshot + tail)" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            Alcotest.(check int) "one snapshot served" 1
              (Replication.Sender.snapshots_sent sender);
            (* Live tail: a batch committed after sync must flow through
               and be acked (the semi-sync primitive). *)
            List.iter (Relation.insert rel) (batch ~seed:8 ~start:30 21);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let lsn = Wal.committed_end wal in
            Alcotest.(check bool) "wait_applied observes the ack" true
              (Replication.Sender.wait_applied sender ~lsn ~timeout_s:30.0);
            Alcotest.(check int) "replica applied through the commit" lsn
              (Replication.Replica.applied_lsn replica);
            Alcotest.(check int) "caught-up sender shows zero lag" 0
              (Replication.Sender.lag_bytes sender);
            Alcotest.(check int) "one subscriber" 1
              (Replication.Sender.connected sender);
            Alcotest.(check bool) "replica staleness is finite and small" true
              (Replication.Replica.stale_ms replica < 10_000.0);
            let expected = raw_records rel in
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.crash env;
            (* Byte identity: the replica's log is exactly the primary's
               committed prefix — nothing more, nothing less. *)
            let pwal = read_file (Recovery.wal_path_of pdir) in
            let rwal = read_file (Recovery.wal_path_of rdir) in
            Alcotest.(check int) "replica log ends at the last boundary" lsn
              (String.length rwal);
            Alcotest.(check string) "replica log = primary committed prefix"
              (String.sub pwal 0 lsn) rwal;
            (* And the replicated relation is record-identical. *)
            let env2 = Env.open_durable ~dir:rdir ~readonly:true () in
            (match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 ->
                Alcotest.(check (list bytes)) "records bit-identical" expected
                  (raw_records rel2)
            | None -> Alcotest.fail "replicated catalog lost K");
            Env.close env2));
    tc "the replica's apply writes the pages recovery's redo writes" `Quick
      (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced before any page exists" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            (* Every page now reaches the replica through its apply: the
               first batch allocates a page, the second appends onto it,
               the third spills onto new pages. *)
            let wal = Option.get (Env.wal env) in
            List.iter
              (fun (seed, start, n) ->
                List.iter (Relation.insert rel) (batch ~seed ~start n);
                Env.commit env;
                Alcotest.(check bool) "batch applied" true
                  (Replication.Sender.wait_applied sender
                     ~lsn:(Wal.committed_end wal) ~timeout_s:30.0))
              [ (11, 0, 4); (12, 4, 3); (13, 7, 30) ];
            Alcotest.(check bool) "several pages" true (Relation.num_pages rel > 2);
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.crash env;
            (* Redo the replica's log from nothing, in a third directory. *)
            with_dir (fun xdir ->
                Unix.mkdir xdir 0o755;
                let log = read_file (Recovery.wal_path_of rdir) in
                Out_channel.with_open_bin (Recovery.wal_path_of xdir) (fun oc ->
                    Out_channel.output_string oc log);
                let redone, xwal, _ =
                  Recovery.recover ~page_size:512 ~checkpoint:false ~dir:xdir
                    (Iostats.create ())
                in
                Wal.close xwal;
                let applied =
                  Real_disk.open_existing ~readonly:true ~dir:rdir (Iostats.create ())
                in
                let n = Real_disk.num_pages applied in
                Alcotest.(check int) "same page count" (Real_disk.num_pages redone) n;
                for p = 0 to n - 1 do
                  Alcotest.(check bytes)
                    (Printf.sprintf "page %d" p)
                    (Real_disk.read redone p) (Real_disk.read applied p)
                done;
                Real_disk.close applied;
                Real_disk.close redone)));
    tc "a shipped append outside its page ends the session as a retried one"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:21 ~start:0 5);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            let wal = Option.get (Env.wal env) in
            let good = Wal.committed_end wal in
            (* A CRC-valid record whose bytes land past a 512-byte page. *)
            ignore
              (Wal.log_heap_append wal ~page:0 ~off:600 ~count:1
                 ~data:(Bytes.make 8 'x') ~image:(fun () -> Bytes.make 512 '\000'));
            Env.commit env;
            (* The applier clears [connected] only after it caught the
               session's exception; a thread that died would leave it set. *)
            let deadline = Unix.gettimeofday () +. 10.0 in
            while
              Replication.Replica.connected replica && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.02
            done;
            Alcotest.(check bool) "session ended and was caught" false
              (Replication.Replica.connected replica);
            Alcotest.(check int) "nothing past the good prefix applied" good
              (Replication.Replica.applied_lsn replica);
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.crash env));
    tc "promotion bumps and persists the epoch; idempotent; fences both ways"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:9 ~start:0 15);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            Alcotest.(check int) "first use adopts epoch 1" 1
              (Replication.Sender.epoch sender);
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            (* The primary dies. *)
            Replication.Sender.stop sender;
            Env.crash env;
            let e = Replication.Replica.promote replica in
            Alcotest.(check int) "promotion lands on epoch 2" 2 e;
            Alcotest.(check int) "promote is idempotent" 2
              (Replication.Replica.promote replica);
            Alcotest.(check bool) "promoted replica is never stale" true
              (Replication.Replica.stale_ms replica = 0.0);
            Replication.Replica.stop replica;
            (* The bumped epoch is durable in the replica's log. *)
            (match
               Wal_stream.committed_state ~path:(Recovery.wal_path_of rdir)
             with
            | Ok (_, ep) -> Alcotest.(check int) "epoch persisted" 2 ep
            | Error m -> Alcotest.fail m);
            (* Fencing drill: a zombie sender on the dead primary's
               directory is still at epoch 1; the epoch-2 replica must
               reject its stream and the zombie must count the fence. *)
            let zombie = Replication.Sender.create_for_dir ~dir:pdir in
            Alcotest.(check int) "zombie still at epoch 1" 1
              (Replication.Sender.epoch zombie);
            let zport = Replication.Sender.listen ~port:0 zombie in
            let r2 =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of zport) ()
            in
            Replication.Replica.start r2;
            let deadline = Unix.gettimeofday () +. 10.0 in
            while
              Replication.Replica.fenced_rejects r2 = 0
              && Unix.gettimeofday () < deadline
            do
              Thread.yield ();
              Unix.sleepf 0.01
            done;
            Replication.Replica.stop r2;
            Alcotest.(check bool) "replica rejected the stale stream" true
              (Replication.Replica.fenced_rejects r2 >= 1);
            Alcotest.(check bool) "zombie sender fenced the subscriber" true
              (Replication.Sender.fenced zombie >= 1);
            Replication.Sender.stop zombie));
    tc "a replica daemon checks queries against the data it has applied"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:5 ~start:0 10);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            let daemon =
              Server.Daemon.start ~workers:1 ~replica
                ~make_env:(fun ~pool_pages ->
                  Env.open_durable ~dir:rdir ~readonly:true ~pool_pages ())
                ~setup:(fun env catalog ->
                  let durable = Catalog.load_durable env in
                  List.iter
                    (fun name ->
                      Option.iter (Catalog.add catalog) (Catalog.find durable name))
                    (Catalog.names durable))
                ()
            in
            Fun.protect
              ~finally:(fun () ->
                Server.Daemon.stop daemon;
                Replication.Replica.stop replica;
                Replication.Sender.stop sender;
                Env.crash env)
            @@ fun () ->
            (* T is created on the primary after the daemon started. *)
            let t_rel =
              Relation.create ~durable:true env
                (Schema.make ~name:"T" [ ("ID", Schema.TNum); ("X", Schema.TNum) ])
            in
            List.iter (Relation.insert t_rel) (batch ~seed:6 ~start:0 10);
            Env.commit env;
            let lsn = Wal.committed_end (Option.get (Env.wal env)) in
            Alcotest.(check bool) "the replica applied T" true
              (Replication.Sender.wait_applied sender ~lsn ~timeout_s:30.0);
            let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
            Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
            let c name = Server.Daemon.counter_value daemon name in
            (match Server.Client.query client "SELECT T.NOPE FROM T" with
            | Server.Client.Rejected { code; diagnostics } ->
                Alcotest.(check string) "code" "FSQL011" code;
                Alcotest.(check bool) "caret render" true
                  (String.length diagnostics > 0)
            | _ -> Alcotest.fail "expected Rejected FSQL011");
            (* admission's context predates T, so the worker's check
               answered, and the books count it as a failed request *)
            Alcotest.(check int) "not rejected at admission" 0
              (c "requests_rejected_static");
            Alcotest.(check int) "counted as failed" 1 (c "requests_failed");
            (match Server.Client.query client "SELECT T.ID FROM T" with
            | Server.Client.Answer { rows; _ } ->
                Alcotest.(check int) "every row of T" 10 (List.length rows)
            | _ -> Alcotest.fail "expected an answer over T");
            Alcotest.(check int) "books balance" (c "requests_accepted")
              (c "requests_completed" + c "requests_cancelled"
             + c "requests_failed" + c "requests_failed_transient")));
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol: rev-3 frames and the rev-2 interop guarantee *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let roundtrip_request req =
  let r, w = Unix.pipe () in
  Server.Wire.write_request w req;
  let got = Server.Wire.read_request (Server.Wire.reader r) in
  close_noerr w;
  close_noerr r;
  got

let roundtrip_reply reply =
  let r, w = Unix.pipe () in
  Server.Wire.write_reply w reply;
  let got = Server.Wire.read_reply (Server.Wire.reader r) in
  close_noerr w;
  close_noerr r;
  got

(* Raw frame I/O, independent of the Wire codecs — what a foreign client
   implementation would do. *)
let raw_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let raw_str buf s =
  raw_u32 buf (String.length s);
  Buffer.add_string buf s

let raw_frame payload =
  let frame = Buffer.create 64 in
  raw_u32 frame (Buffer.length payload);
  Buffer.add_buffer frame payload;
  Buffer.contents frame

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = Unix.read fd b off (n - off) in
      if k = 0 then failwith "peer closed mid-frame";
      go (off + k)
    end
  in
  go 0;
  b

let read_raw_frame fd =
  let hdr = read_exact fd 4 in
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  Bytes.to_string (read_exact fd len)

(* A worker that takes the read lock between a batch's page writes and
   its bookkeeping would see new data under the old generation and skip
   its rebuild; under the read lock the applied LSN must always equal the
   replica's log size (LSNs are byte offsets into the shipped log). *)
let generation_tests =
  [
    tc "under the read lock the applied LSN always equals the log size"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:3 ~start:0 10);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "initial catch-up" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            let wal_path = Recovery.wal_path_of rdir in
            let stop = Atomic.make false in
            let samples = Atomic.make 0 and torn = Atomic.make 0 in
            let sampler =
              Domain.spawn (fun () ->
                  while not (Atomic.get stop) do
                    Replication.Replica.with_read replica (fun () ->
                        let applied = Replication.Replica.applied_lsn replica in
                        if applied <> (Unix.stat wal_path).Unix.st_size then
                          Atomic.incr torn;
                        Atomic.incr samples)
                  done)
            in
            let gen0 = Replication.Replica.generation replica in
            let wal = Option.get (Env.wal env) in
            Fun.protect
              ~finally:(fun () ->
                Atomic.set stop true;
                Domain.join sampler)
              (fun () ->
                (* one semi-sync commit per batch *)
                for k = 1 to 110 do
                  Relation.insert rel (List.hd (batch ~seed:k ~start:(10 + k) 1));
                  Env.commit env;
                  Alcotest.(check bool) "commit applied" true
                    (Replication.Sender.wait_applied sender
                       ~lsn:(Wal.committed_end wal) ~timeout_s:30.0)
                done);
            Alcotest.(check bool) ">= 100 batches applied" true
              (Replication.Replica.generation replica - gen0 >= 100);
            Alcotest.(check bool) "sampled" true (Atomic.get samples > 0);
            Alcotest.(check int) "samples with applied LSN <> log size" 0
              (Atomic.get torn);
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.close env));
  ]

let wire_tests =
  [
    tc "rev-3 replication frames round-trip exactly" `Quick (fun () ->
        Alcotest.(check int) "protocol rev" 3 Server.Wire.protocol_rev;
        List.iter
          (fun req ->
            Alcotest.(check bool) "request" true (roundtrip_request req = req))
          [
            Server.Wire.Rep_subscribe
              { epoch = 3; stream_id = 0x123456789ABCL; from_lsn = 7781 };
            Server.Wire.Rep_subscribe
              { epoch = 0; stream_id = 0L; from_lsn = 0 };
            Server.Wire.Rep_ack { epoch = 2; applied_lsn = 1_048_583 };
            Server.Wire.Promote;
          ];
        List.iter
          (fun reply ->
            Alcotest.(check bool) "reply" true (roundtrip_reply reply = reply))
          [
            Server.Wire.Rep_hello
              {
                epoch = 2;
                stream_id = Int64.max_int;
                page_size = 8192;
                snapshot = true;
                start_lsn = 4096;
                data_len = 123_456;
              };
            Server.Wire.Rep_chunk
              {
                kind = Server.Wire.Data_chunk;
                off = 0;
                data = "\x00\x01\xff binary \n bytes\x00";
              };
            Server.Wire.Rep_chunk
              { kind = Server.Wire.Wal_chunk; off = 65_536; data = "" };
            Server.Wire.Rep_wal
              { epoch = 1; start_lsn = 8; primary_end = 99; data = "\xca\xfe" };
            (* empty data = heartbeat *)
            Server.Wire.Rep_wal
              { epoch = 1; start_lsn = 99; primary_end = 99; data = "" };
            Server.Wire.Rep_fence { epoch = 7 };
            Server.Wire.Promoted { epoch = 2 };
          ]);
    tc "rev-2 client / rev-3 daemon: byte-for-byte interop" `Quick (fun () ->
        (* A rev-2 client's Query frame, crafted byte by byte: tag 'q',
           request ID, deadline, domains, SQL — exactly as PR 7 shipped
           it. The rev-3 daemon must serve it, answer only with rev-2
           reply tags, and the rev-3 encoder must still emit the
           identical bytes for the same request. *)
        let sql =
          "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)"
        in
        let rid = "deadbeef01234567" in
        let payload = Buffer.create 64 in
        Buffer.add_char payload 'q';
        raw_str payload rid;
        raw_u32 payload 10_000;
        raw_u32 payload 0;
        raw_str payload sql;
        let raw = raw_frame payload in
        (* Byte identity of the rev-3 encoder on a rev-2 frame. *)
        let r, w = Unix.pipe () in
        Server.Wire.write_request w
          (Server.Wire.Query
             { request_id = rid; deadline_ms = 10_000; domains = 0; sql });
        let reencoded =
          Bytes.to_string (read_exact r (String.length raw))
        in
        close_noerr w;
        close_noerr r;
        Alcotest.(check string) "rev-3 encoding of a rev-2 query" raw reencoded;
        (* Serve it. *)
        let daemon =
          Server.Daemon.start ~workers:1
            ~setup:(Server.Demo.server_setup ~seed:11 ())
            ()
        in
        Fun.protect
          ~finally:(fun () -> Server.Daemon.stop daemon)
          (fun () ->
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> close_noerr sock)
              (fun () ->
                Unix.connect sock
                  (Unix.ADDR_INET
                     (Unix.inet_addr_loopback, Server.Daemon.port daemon));
                write_all sock raw;
                let rev2_reply_tags = [ 'H'; 'R'; 'D'; 'E'; 'T'; 'O'; 'S'; 'C' ] in
                let rows = ref 0 and header = ref false and fin = ref false in
                while not !fin do
                  let frame = read_raw_frame sock in
                  let tag = frame.[0] in
                  Alcotest.(check bool)
                    (Printf.sprintf "reply tag %C is a rev-2 tag" tag)
                    true
                    (List.mem tag rev2_reply_tags);
                  match tag with
                  | 'H' -> header := true
                  | 'R' -> incr rows
                  | 'D' -> fin := true
                  | t ->
                      Alcotest.fail
                        (Printf.sprintf "unexpected terminal %C" t)
                done;
                Alcotest.(check bool) "header arrived" true !header;
                Alcotest.(check bool) "rows arrived" true (!rows > 0);
                (* A rev-2 Metrics frame on the same connection. *)
                let m = Buffer.create 4 in
                Buffer.add_char m 'M';
                write_all sock (raw_frame m);
                let frame = read_raw_frame sock in
                Alcotest.(check char) "metrics answered with rev-2 'J'" 'J'
                  frame.[0])));
    tc "Client.connect honours the connect deadline" `Quick (fun () ->
        (* A listener whose accept queue is saturated drops further SYNs,
           so a fresh connect hangs in retransmission — exactly the
           blackholed-primary case the applier's reconnect path hits. *)
        let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt srv Unix.SO_REUSEADDR true;
        Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen srv 1;
        let port =
          match Unix.getsockname srv with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        let stuffers =
          List.init 8 (fun _ ->
              let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.set_nonblock c;
              (try
                 Unix.connect c
                   (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
               with
              | Unix.Unix_error
                  ( (Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN),
                    _,
                    _ ) ->
                  ());
              c)
        in
        Unix.sleepf 0.05;
        let t0 = Unix.gettimeofday () in
        let timed_out =
          try
            let c = Server.Client.connect ~timeout_ms:300 ~port () in
            Server.Client.close c;
            false
          with Server.Client.Connect_timeout -> true
        in
        let dt = Unix.gettimeofday () -. t0 in
        List.iter close_noerr stuffers;
        close_noerr srv;
        Alcotest.(check bool) "raised Connect_timeout" true timed_out;
        Alcotest.(check bool) "within a bounded window" true
          (dt >= 0.25 && dt < 3.0));
  ]

(* ------------------------------------------------------------------ *)
(* Event-driven waits: woken by the event, bounded by the ticker *)

let heartbeat_s = 0.2

(* A primary with one committed batch and its sender (no listener). *)
let with_sender f =
  with_dir (fun pdir ->
      let env = open_primary pdir in
      let rel = Relation.create ~durable:true env schema in
      List.iter (Relation.insert rel) (batch ~seed:3 ~start:0 10);
      Env.commit env;
      let sender = Replication.Sender.create ~env in
      let lsn = Wal.committed_end (Option.get (Env.wal env)) in
      Fun.protect
        ~finally:(fun () ->
          Replication.Sender.stop sender;
          Env.crash env)
        (fun () -> f sender lsn))

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let wakeup_tests =
  [
    tc "wait_applied times out within one tick of its deadline" `Quick
      (fun () ->
        with_sender (fun sender lsn ->
            let ok, dt =
              timed (fun () ->
                  Replication.Sender.wait_applied sender ~lsn ~timeout_s:0.3)
            in
            Alcotest.(check bool) "no replica acked" false ok;
            Alcotest.(check bool)
              (Printf.sprintf "returned after %.3f s, in [0.3, 0.3 + tick]" dt)
              true
              (dt >= 0.3 && dt <= 0.3 +. heartbeat_s +. 0.1)));
    tc "wait_applied wakes within 100 ms of a covering ack" `Quick (fun () ->
        with_sender (fun sender lsn ->
            (* A subscriber whose stream goes nowhere: only its acks
               matter here. *)
            let id =
              match
                Replication.Sender.serve sender
                  ~epoch:(Replication.Sender.epoch sender) ~stream_id:0L
                  ~from_lsn:0 ~send:ignore
              with
              | Some id -> id
              | None -> Alcotest.fail "subscriber fenced"
            in
            let acked_at = ref 0.0 in
            let acker =
              Thread.create
                (fun () ->
                  Thread.delay 0.25;
                  Replication.Sender.ack sender ~id ~applied_lsn:(lsn - 1);
                  Thread.delay 0.05;
                  acked_at := Unix.gettimeofday ();
                  Replication.Sender.ack sender ~id ~applied_lsn:lsn)
                ()
            in
            let ok = Replication.Sender.wait_applied sender ~lsn ~timeout_s:10.0 in
            let returned_at = Unix.gettimeofday () in
            Thread.join acker;
            Alcotest.(check bool) "the covering ack is seen" true ok;
            let lag = returned_at -. !acked_at in
            Alcotest.(check bool)
              (Printf.sprintf "woke %.1f ms after the ack" (lag *. 1000.))
              true (lag < 0.1)));
    tc "Sender.stop releases a blocked wait_applied" `Quick (fun () ->
        with_dir (fun pdir ->
            let env = open_primary pdir in
            let sender = Replication.Sender.create ~env in
            let result = ref None in
            let waiter =
              Thread.create
                (fun () ->
                  result :=
                    Some
                      (timed (fun () ->
                           Replication.Sender.wait_applied sender
                             ~lsn:max_int ~timeout_s:60.0)))
                ()
            in
            Thread.delay 0.1;
            Replication.Sender.stop sender;
            Thread.join waiter;
            Env.crash env;
            match !result with
            | Some (ok, dt) ->
                Alcotest.(check bool) "no ack" false ok;
                Alcotest.(check bool)
                  (Printf.sprintf "released after %.3f s" dt)
                  true (dt < 1.0)
            | None -> Alcotest.fail "waiter did not finish"));
    tc "wait_synced returns after the first applied batch; stop releases it"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:5 ~start:0 10);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            let ok, dt =
              timed (fun () ->
                  Replication.Replica.wait_synced ~timeout_s:30.0 replica)
            in
            Alcotest.(check bool) "synced" true ok;
            Alcotest.(check bool)
              (Printf.sprintf "returned after %.3f s" dt) true (dt < 10.0);
            Alcotest.(check bool) "a batch was applied" true
              (Replication.Replica.generation replica >= 1);
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.crash env;
            (* A replica whose primary never answers: the deadline holds
               to within a tick, and stop releases a blocked waiter. *)
            let lonely = Replication.Replica.create ~dir:rdir ~primary:"127.0.0.1:1" () in
            let ok, dt =
              timed (fun () -> Replication.Replica.wait_synced ~timeout_s:0.3 lonely)
            in
            Alcotest.(check bool) "never synced" false ok;
            Alcotest.(check bool)
              (Printf.sprintf "timed out after %.3f s" dt)
              true
              (dt >= 0.3 && dt <= 0.3 +. heartbeat_s +. 0.1);
            let result = ref None in
            let waiter =
              Thread.create
                (fun () ->
                  result :=
                    Some
                      (timed (fun () ->
                           Replication.Replica.wait_synced ~timeout_s:60.0 lonely)))
                ()
            in
            Thread.delay 0.1;
            Replication.Replica.stop lonely;
            Thread.join waiter;
            match !result with
            | Some (ok, dt) ->
                Alcotest.(check bool) "released, not synced" false ok;
                Alcotest.(check bool)
                  (Printf.sprintf "released after %.3f s" dt) true (dt < 1.0)
            | None -> Alcotest.fail "waiter did not finish"));
  ]

let listener_tests =
  [
    tc "an idle client on Sender.listen blocks no subscriber and no stop"
      `Quick (fun () ->
        with_sender (fun sender _ ->
            (* a host name, resolved like the daemon's *)
            let port = Replication.Sender.listen ~host:"localhost" ~port:0 sender in
            let idle = Test_util.idle_connect port in
            let closed = ref false in
            let unblock () =
              if not !closed then begin
                closed := true;
                close_noerr idle
              end
            in
            Fun.protect ~finally:unblock (fun () ->
                let client = Server.Client.connect ~port () in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close client)
                  (fun () ->
                    let reply =
                      Test_util.within ~unblock "a subscribe beside an idle client"
                        (fun () ->
                          Server.Client.send client
                            (Server.Wire.Rep_subscribe
                               { epoch = 0; stream_id = 0L; from_lsn = 0 });
                          Server.Client.recv client)
                    in
                    (match reply with
                    | Server.Wire.Rep_hello { snapshot = true; _ } -> ()
                    | _ -> Alcotest.fail "expected a snapshot hello");
                    Test_util.within ~unblock "Sender.stop beside an idle client"
                      (fun () -> Replication.Sender.stop sender)))));
  ]

let suites =
  [
    ("replication.wal-stream", wal_stream_tests);
    ("replication.e2e", e2e_tests);
    ("replication.wire", wire_tests);
    ("replication.wakeups", wakeup_tests);
    ("replication.generation", generation_tests);
    ("replication.listener", listener_tests);
  ]
