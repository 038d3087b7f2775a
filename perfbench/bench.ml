(* AIM-II benchmark: seeded closed-loop workloads against an in-process
   server over loopback TCP, plus a traced in-process replay of the same
   operations that splits the cost by layer.  See NOTES.md.

     bench.exe --workload oltp_read|oltp_write|nf2_scan --seed N
               --seconds S --trace 0|1

   The last line of standard output is one JSON object; the exit code
   is non-zero on a wrong answer or a lost acknowledged write. *)

module Db = Nf2.Db
module Server = Nf2_server.Server
module Client = Nf2_server.Client
module Proto = Nf2_server.Protocol
module Value = Nf2_model.Value
module Schema = Nf2_model.Schema
module Rel = Nf2_algebra.Rel
module BP = Nf2_storage.Buffer_pool
module Disk = Nf2_storage.Disk
module OS = Nf2_storage.Object_store
module Wal = Nf2_storage.Wal
module Mvcc = Nf2_temporal.Mvcc
module Ast = Nf2_lang.Ast
module W = Workload

let now = Unix.gettimeofday
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A --trace 0 run is this many child processes, one after another;
   each measures one part and the run reports medians over the parts,
   so that process-level luck on a shared host (where the heap lands,
   what else runs meanwhile) weighs less in the run's figures. *)
let parts = 5

(* Acknowledged writes per part before [rss_peak_mb] and [recovery_s]
   are read: the same on every commit, so both are charged for the
   same work.  Whole decks of writes per client (see Workload), so the
   write mix of every part is the same. *)
let part_writes = 20

(* Recoveries timed per part. *)
let recovery_repeats = 5

(* Writes of the traced run's probe on the read-only workloads. *)
let trace_probe_writes = 20

(* Tail percentile per workload and op class: the highest of p90, p99
   and p99.9 with at least 10 samples beyond it, at 15-second runs on
   the commit that introduced this benchmark.  [`Per_part] takes it in
   each part and reports the median; [`Pooled] takes it over the
   samples of all parts, where one part has too few.  Fixed here so
   that a parent and a change compare the same statistic. *)
let tail_plan (w : W.name) ~write =
  match (w, write) with
  | W.Oltp_read, false -> (`Per_part, 90.)
  | _ -> (`Pooled, 90.)

(* Client connections per workload.  oltp_read has one: two closed-loop
   readers over the server's single read-executor domain on a 2-core
   host fall into one of two interleavings per process (point reads
   mostly queued behind the other client's member lookups, or mostly
   not), and the read median jumped between about 6 and 15 ms from one
   part to the next. *)
let clients = function W.Oltp_write -> 2 | W.Oltp_read | W.Nf2_scan -> 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline "usage: bench.exe --workload oltp_read|oltp_write|nf2_scan --seed N --seconds S --trace 0|1";
  exit 2

let args =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg name = match Hashtbl.find_opt args name with Some v -> v | None -> usage ()
let int_arg name = match int_of_string_opt (arg name) with Some n -> n | None -> usage ()

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type env = {
  ds : W.dataset;
  db : Db.t;
  srv : Server.t option;
  model : W.dept array;  (** every loaded department, in a seeded key order *)
}

(* Build the dataset, load it, and (for the TCP runs) start the server.
   The key order is the seeded permutation behind the Zipf draws. *)
let setup ~seed ~serve =
  let ds = W.generate ~seed in
  let db = W.load ds in
  let srv = if serve then Some (Server.start ~db { Server.default_config with Server.port = 0 }) else None in
  let model = W.shuffle (Random.State.make [| seed; 7 |]) (Array.of_list (List.map W.dept_of_tuple ds.W.depts)) in
  { ds; db; srv; model }

let teardown env =
  Option.iter Server.stop env.srv;
  Gc.full_major ()

let port env = Server.port (Option.get env.srv)

(* ------------------------------------------------------------------ *)
(* Closed-loop TCP clients                                             *)

type sample = { op : W.op; lat : float; ok : bool; wrong : bool; seq : int; t_done : float }

let completion = Atomic.make 0
let wrong_shown = Atomic.make 0

let judge (op : W.op) (resp : Proto.response option) =
  match (resp, op.W.expect) with
  | Some (Proto.Result_table { rows; _ }), (W.Rows _ | W.Digest _) ->
      let ok = W.check op.W.expect rows in
      (ok, not ok)
  | Some (Proto.Row_count { affected; _ }), W.Affected n -> (affected = n, affected <> n)
  | Some (Proto.Error _), _ | None, _ -> (false, false)
  | Some _, _ -> (false, true)

let describe (resp : Proto.response option) =
  match resp with
  | Some (Proto.Error { code; message }) -> Printf.sprintf "error %s %s" code message
  | Some (Proto.Result_table { rows; _ }) -> Printf.sprintf "%d row(s)" (List.length rows)
  | Some (Proto.Row_count { message; _ }) -> message
  | Some _ -> "unexpected response"
  | None -> "connection closed"

(* One client: issue [next ()] until [continue] says stop; each
   statement waits for its answer (closed loop). *)
let run_client ~port ~(next : unit -> W.op) ~(continue : int -> int -> bool) =
  let c = Client.connect ~host:"127.0.0.1" ~port in
  let out = ref [] and ops = ref 0 and writes = ref 0 in
  (try
     while continue !ops !writes do
       let op = next () in
       let t0 = now () in
       let resp = try Client.request c (Proto.Query op.W.sql) with Unix.Unix_error _ -> None in
       let t_done = now () in
       let lat = t_done -. t0 in
       let ok, wrong = judge op resp in
       if ok && op.W.write then op.W.on_ack ();
       if (not ok) && Atomic.fetch_and_add wrong_shown 1 < 5 then
         Printf.eprintf "failed %s: %s -> %s\n%!" (W.kind_name op.W.kind) op.W.sql (describe resp);
       out := { op; lat; ok; wrong; seq = Atomic.fetch_and_add completion 1; t_done } :: !out;
       incr ops;
       if op.W.write then incr writes;
       if resp = None then raise Exit
     done
   with Exit -> ());
  Client.close c;
  !out

(* Run one client per generator in parallel; returns the samples in
   completion order and the wall time from start to the last answer. *)
let drive ~port (streams : ((unit -> W.op) * (int -> int -> bool)) list) =
  let results = Array.make (List.length streams) [] in
  let t0 = now () in
  List.mapi
    (fun i (next, continue) -> Thread.create (fun () -> results.(i) <- run_client ~port ~next ~continue) ())
    streams
  |> List.iter Thread.join;
  let wall = now () -. t0 in
  let all = List.concat (Array.to_list results) in
  (List.sort (fun a b -> compare a.seq b.seq) all, wall)

let until deadline _ _ = now () < deadline
let ops_below n ops _ = ops < n
let writes_below n _ writes = writes < n

(* ------------------------------------------------------------------ *)
(* Per-workload streams                                                *)

(* Generators of a workload's clients.  oltp_write clients own disjoint
   halves of the key order. *)
let gens (w : W.name) ~seed (model : W.dept array) =
  match w with
  | W.Oltp_read -> List.init (clients w) (fun id -> W.make_gen ~seed ~id ~zipf:true model)
  | W.Oltp_write ->
      List.init 2 (fun id ->
          let mine = List.filteri (fun i _ -> i mod 2 = id) (Array.to_list model) in
          W.make_gen ~seed ~id ~zipf:false (Array.of_list mine))
  | W.Nf2_scan -> []

let streams (w : W.name) ~seed env =
  match w with
  | W.Oltp_read -> List.map (fun g () -> W.next_oltp_read g) (gens w ~seed env.model)
  | W.Oltp_write -> List.map (fun g () -> W.next_oltp_write g) (gens w ~seed env.model)
  | W.Nf2_scan ->
      let s = W.make_scan_gen ~seed env.db in
      [ (fun () -> W.next_scan s) ]

(* The write probe of the read-only workloads: one client owning every
   department, issuing the single-object writes of oltp_write. *)
let probe_gen ~seed env = W.make_gen ~seed:(seed + 1) ~id:0 ~zipf:false env.model

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)

let sorted_rows db sql =
  List.sort compare (List.map (List.map Value.render_v) (Rel.tuples (Db.query db sql)))

(* The model after every acknowledged write: the loaded departments as
   updated, plus the ones the clients inserted and did not delete. *)
let model_state env (gs : W.gen list) =
  Array.to_list env.model @ List.concat_map (fun g -> g.W.added_depts) gs

let verify_recovered db depts =
  sorted_rows db W.summary_sql = List.sort compare (W.summary_rows depts)
  && sorted_rows db W.all_projects_sql = List.sort compare (W.all_projects_rows depts)

(* Repeated timings of one step, with their spread within the run. *)
let print_repeats what ts =
  Printf.printf "  %s: %s (median %.3f, IQR %.1f%% of it)\n" what
    (String.concat ", " (List.map (Printf.sprintf "%.3f") ts))
    (Stats.median ts) (100. *. Stats.iqr_share ts)

(* Crash now, recover [recovery_repeats] times; the median time and
   whether a recovered database holds exactly the model. *)
let crash_and_recover env depts =
  let img = Db.crash_image env.db in
  Gc.full_major ();
  let first = ref None in
  let times =
    List.init recovery_repeats (fun i ->
        let db, t = time (fun () -> Db.recover_from_image img) in
        if i = 0 then first := Some db;
        t)
  in
  print_repeats "recoveries (s)" times;
  (Stats.median times, try verify_recovered (Option.get !first) depts with _ -> false)

(* ------------------------------------------------------------------ *)
(* Process state                                                       *)

let vmhwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let wal_stats db = Wal.stats (Option.get (Db.wal db))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Run artefacts (part results, spans) stay inside the checkout. *)
let out_dir () =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6f %s\n" n v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics))

let lat_ms xs = List.map (fun s -> s.lat *. 1e3) xs

let describe_run (w : W.name) ~seed env =
  let pages = Disk.npages (Db.disk env.db) in
  Printf.printf "workload %s  seed %d\n" (W.to_string w) seed;
  Printf.printf
    "dataset: %d departments (%d data subtuples), %d reports, %d versioned budgets x %d months; %d \
     pages of %d B vs %d pool frames\n"
    W.departments env.ds.W.subtuples W.reports W.departments W.budget_months pages
    (Disk.page_size (Db.disk env.db)) 256;
  Printf.printf "clients: %d closed-loop over loopback TCP; mix: %s\n" (clients w)
    (match w with
    | W.Oltp_read -> "60% point read by DNO, 30% member lookup by EMPNO, 10% PROJECTS read; Zipf(0.99) keys"
    | W.Oltp_write ->
        "50% point read, 50% autocommitted write (50% UPDATE, 30% project INSERT/DELETE, 20% \
         department INSERT/DELETE); disjoint keys per client"
    | W.Nf2_scan -> "rounds of nest / 3-level unnest / EXISTS-ALL / CONTAINS / ASOF DATE queries");
  Printf.printf "parts: %d child processes of %d acknowledged fixed writes each; figures are medians over parts\n"
    parts part_writes;
  print_endline
    "flush policy: WAL with the async batched appender; simulated in-memory disk, no injected fsync \
     latency (latencies are this host's, not a device's)"

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                          *)

(* What one part measures. *)
type part = {
  p_setup : float;
  p_rate : float;  (** correctly answered ops per second in the timed window *)
  p_reads : float list;  (** read latencies, ms *)
  p_writes : float list;  (** write latencies, ms *)
  p_wal_bytes : int;  (** WAL bytes over the fixed writes *)
  p_acked : int;  (** acknowledged fixed writes *)
  p_rss : float;
  p_recovery : float;  (** median of [recovery_repeats] *)
  p_attempted : int;
  p_failed : int;
  p_wrong : int;
  p_durable : bool;
}

let part_file w i = Filename.concat (out_dir ()) (Printf.sprintf "part-%s-%d.bin" (W.to_string w) i)

(* One part, in this process: set up, then
   - oltp_write: [part_writes] acknowledged writes from both clients,
     memory high-water mark, crash and recovery, then the timed window;
   - the read-only workloads: a warm-up, the timed window, then a write
     probe of [part_writes] single-object writes from one client owning
     every department, memory high-water mark, crash and recovery. *)
let run_part (w : W.name) ~seed ~seconds ~index =
  let env, setup_s = time (fun () -> setup ~seed ~serve:true) in
  if index = 0 then describe_run w ~seed env;
  let port = port env in
  let all = ref [] in
  let run streams =
    let samples, wall = drive ~port streams in
    all := samples @ !all;
    (samples, wall)
  in
  let fixed_phase (gs : W.gen list) next =
    let wal0 = (wal_stats env.db).Wal.bytes in
    let per_client = part_writes / List.length gs in
    let samples, _ = run (List.map (fun g -> ((fun () -> next g), writes_below per_client)) gs) in
    let wal_bytes = (wal_stats env.db).Wal.bytes - wal0 in
    let rss = vmhwm_mb () in
    let recovery, durable = crash_and_recover env (model_state env gs) in
    (samples, wal_bytes, rss, recovery, durable)
  in
  let timed streams =
    Gc.full_major ();
    let deadline = now () +. seconds in
    run (List.map (fun next -> (next, until deadline)) streams)
  in
  let (timed_samples, wall), fixed, wal_bytes, rss, recovery, durable =
    match w with
    | W.Oltp_write ->
        let gs = gens w ~seed env.model in
        let fixed, wal_bytes, rss, recovery, durable = fixed_phase gs W.next_oltp_write in
        (timed (List.map (fun g () -> W.next_oltp_write g) gs), fixed, wal_bytes, rss, recovery, durable)
    | W.Oltp_read | W.Nf2_scan ->
        let streams = streams w ~seed env in
        let warm = match w with W.Nf2_scan -> 5 | _ -> 60 in
        ignore (run (List.map (fun next -> (next, ops_below warm)) streams));
        let timed = timed streams in
        let probe, wal_bytes, rss, recovery, durable =
          fixed_phase [ probe_gen ~seed:(seed + index) env ] W.next_write
        in
        (timed, probe, wal_bytes, rss, recovery, durable)
  in
  (* the part's process ends here: stop the server, skip the collection *)
  Option.iter Server.stop env.srv;
  (* oltp_write's fixed phase has the clients and mix of its timed
     window, so its latencies count too *)
  let latency = timed_samples @ fixed in
  let ok_of pred = List.filter (fun s -> s.ok && pred s) latency in
  let n_ok = List.length (List.filter (fun s -> s.ok) timed_samples) in
  {
    p_setup = setup_s;
    p_rate = float_of_int n_ok /. wall;
    p_reads = lat_ms (ok_of (fun s -> not s.op.W.write));
    p_writes = lat_ms (ok_of (fun s -> s.op.W.write));
    p_wal_bytes = wal_bytes;
    p_acked = List.length (List.filter (fun s -> s.ok && s.op.W.write) fixed);
    p_rss = rss;
    p_recovery = recovery;
    p_attempted = List.length !all;
    p_failed = List.length (List.filter (fun s -> not s.ok) !all);
    p_wrong = List.length (List.filter (fun s -> s.wrong) !all);
    p_durable = durable;
  }

(* Run part [index] in a child process of this same program; its result
   comes back through a file under perfbench/out. *)
let child_part (w : W.name) ~seed ~seconds ~index =
  let file = part_file w index in
  (try Sys.remove file with Sys_error _ -> ());
  let argv =
    [| Sys.executable_name; "--workload"; W.to_string w; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%.17g" seconds; "--trace"; "0"; "--part"; string_of_int index |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED (0 | 1) when Sys.file_exists file ->
      (* exit 1 with a result: the part saw a wrong answer or a lost
         write, which the run reports *)
      let p : part = In_channel.with_open_bin file Marshal.from_channel in
      Sys.remove file;
      p
  | _ ->
      prerr_endline "a part of the run failed";
      exit 1

let end_to_end (w : W.name) ~seed ~seconds =
  let t_start = now () in
  let ps = List.init parts (fun index -> child_part w ~seed ~seconds:(seconds /. float_of_int parts) ~index) in
  let med f = Stats.median (List.map f ps) in
  let tail ~write =
    let how, p = tail_plan w ~write in
    let lat (x : part) = if write then x.p_writes else x.p_reads in
    let samples = match how with `Per_part -> List.map lat ps | `Pooled -> [ List.concat_map lat ps ] in
    let per = List.map (Stats.percentile p) samples in
    Printf.printf "  %s tail: p%g %s, %s samples, %s beyond it (highest qualifying in this run: %s)\n"
      (if write then "write" else "read") p
      (match how with `Per_part -> "per part" | `Pooled -> "over all parts")
      (String.concat "/" (List.map (fun s -> string_of_int (List.length s)) samples))
      (String.concat "/" (List.map (fun (_, b) -> string_of_int b) per))
      (match Stats.tail_choice (List.hd samples) with Some q -> Printf.sprintf "p%g" q | None -> "none");
    Stats.median (List.map fst per)
  in
  let show what f = print_repeats what (List.map f ps) in
  show "set-ups (s)" (fun x -> x.p_setup);
  show "ops/s" (fun x -> x.p_rate);
  show "read p50 (ms)" (fun x -> Stats.median x.p_reads);
  show "write p50 (ms)" (fun x -> Stats.median x.p_writes);
  show "recovery (s)" (fun x -> x.p_recovery);
  let sum f = List.fold_left (fun a x -> a + f x) 0 ps in
  let attempted = sum (fun x -> x.p_attempted) and failed = sum (fun x -> x.p_failed) in
  let wrong = sum (fun x -> x.p_wrong) and durable = List.for_all (fun x -> x.p_durable) ps in
  Printf.printf "  fail_frac %.6f (%d of %d ops failed, %d wrong answers); acknowledged writes recovered: %b\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted wrong durable;
  let metrics =
    [
      ("setup_s", med (fun x -> x.p_setup), "s");
      ("ops_per_s", med (fun x -> x.p_rate), "1/s");
      ("read_p50_ms", med (fun x -> Stats.median x.p_reads), "ms");
      ("read_tail_ms", tail ~write:false, "ms");
      ("write_p50_ms", med (fun x -> Stats.median x.p_writes), "ms");
      ("write_tail_ms", tail ~write:true, "ms");
      ("wal_bytes_per_write", float_of_int (sum (fun x -> x.p_wal_bytes)) /. float_of_int (max 1 (sum (fun x -> x.p_acked))), "B");
      ("rss_peak_mb", med (fun x -> x.p_rss), "MB");
      ("recovery_s", med (fun x -> x.p_recovery), "s");
    ]
  in
  let correct = wrong = 0 && durable in
  Printf.printf "  run took %.1f s\n" (now () -. t_start);
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                              *)

(* Counters read at every span boundary. *)
let counter_names =
  [| "pool_hits"; "pool_misses"; "pool_evictions"; "disk_reads"; "disk_writes"; "subtuple_reads";
     "wal_records"; "wal_bytes"; "wal_flushes"; "seq_scans"; "index_scans"; "index_intersections";
     "alloc_words" |]

let counter name =
  let rec find i = if counter_names.(i) = name then i else find (i + 1) in
  find 0

let counters db =
  let g = Gc.quick_stat () in
  let p = BP.stats (Db.pool db) in
  let d = Disk.stats (Db.disk db) in
  let st =
    List.fold_left
      (fun a t ->
        let s = OS.stats (Db.table_store db ~table:t) in
        a + s.OS.md_reads + s.OS.data_reads)
      0 [ "DEPARTMENTS"; "REPORTS"; "BUDGETS" ]
  in
  let wl = wal_stats db in
  let pc = Db.planner_counters db in
  [| p.BP.hits; p.BP.misses; p.BP.evictions; d.Disk.reads; d.Disk.writes; st; wl.Wal.records;
     wl.Wal.bytes; wl.Wal.flushes; pc.Db.seq_scans; pc.Db.index_scans; pc.Db.index_intersections;
     int_of_float (g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words) |]

(* Spans are kept in memory and written out when the run ends. *)
type tracer = {
  tdb : Db.t;
  mutable next_id : int;
  mutable cur : int;
  mutable op_id : int;
  mutable spans : (Stats.span * int array) list;
}

let span tr name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = tr.cur in
  tr.cur <- id;
  let c0 = counters tr.tdb in
  let start = now_ns () in
  let finish () =
    let stop = now_ns () in
    let c1 = counters tr.tdb in
    tr.cur <- parent;
    tr.spans <- ({ Stats.id; name; start; stop; parent; op = tr.op_id }, Array.map2 ( - ) c1 c0) :: tr.spans
  in
  Fun.protect ~finally:finish f

(* What a session sends back for a statement result. *)
let response_of_result = function
  | Db.Rows rel ->
      Proto.Result_table
        {
          columns = List.map (fun (f : Schema.field) -> f.Schema.name) rel.Rel.schema.Schema.fields;
          rows = List.map (List.map Value.render_v) (Rel.tuples rel);
        }
  | Db.Msg m ->
      let affected =
        match String.split_on_char ' ' m with
        | first :: _ -> Option.value (int_of_string_opt first) ~default:0
        | [] -> 0
      in
      Proto.Row_count { affected; message = m }

type wrap = { sp : 'a. string -> (unit -> 'a) -> 'a }

(* One operation through the layer calls a server statement makes, in a
   session's order; true iff the answer is right. *)
let replay_op { sp } db (op : W.op) =
  let sql =
    sp "server.codec" (fun () ->
        match Proto.decode_request (Proto.encode_request (Proto.Query op.W.sql)) with
        | Proto.Query s -> s
        | _ -> assert false)
  in
  let stmt = sp "lang.parse" (fun () -> Nf2_lang.Parser.parse_one sql) in
  let stmt = sp "lang.rewrite" (fun () -> Nf2_lang.Rewrite.rewrite_stmt stmt) in
  let result =
    if op.W.write then begin
      sp "core.begin" (fun () -> Db.begin_txn db);
      match sp "core.exec" (fun () -> Db.exec_stmt ~rewrite:false db stmt) with
      | r ->
          sp "core.commit" (fun () -> Db.commit db);
          r
      | exception e ->
          (try Db.rollback db with _ -> ());
          raise e
    end
    else begin
      let snap = sp "mvcc.snapshot" (fun () -> Db.snapshot db) in
      Fun.protect
        ~finally:(fun () -> sp "mvcc.snapshot" (fun () -> Db.release_snapshot db snap))
        (fun () ->
          (match stmt with
          | Ast.Select q -> ignore (sp "plan.plan" (fun () -> Db.exec_read ~rewrite:false db snap (Ast.Explain q)))
          | _ -> ());
          sp "core.read" (fun () -> Db.exec_read ~rewrite:false db snap stmt))
    end
  in
  let resp =
    sp "server.codec" (fun () -> Proto.decode_response (Proto.encode_response (response_of_result result)))
  in
  fst (judge op (Some resp))

(* Replays [ops]; [each i run] wraps operation [i]; returns the number
   of wrong answers. *)
let replay db (ops : W.op list) ~wrap ~each =
  let bad = ref 0 in
  List.iteri
    (fun i op ->
      let ok = try each i (fun () -> replay_op wrap db op) with _ -> false in
      if not ok then begin
        incr bad;
        Printf.eprintf "replay answer differs: %s\n%!" op.W.sql
      end)
    ops;
  !bad

(* Prometheus gauge by exact name (0 while not exported yet). *)
let prom_value text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> Option.value (float_of_string_opt v) ~default:acc
      | _ -> acc)
    0. (String.split_on_char '\n' text)

let write_spans w (spans : (Stats.span * int array) array) self =
  let path = Filename.concat (out_dir ()) (Printf.sprintf "spans-%s.tsv" (W.to_string w)) in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\top\tparent\tname\tstart_ns\tstop_ns\tself_ns\t%s\n"
        (String.concat "\t" (Array.to_list counter_names));
      Array.iteri
        (fun i ((s : Stats.span), c) ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%s\n" s.id s.op s.parent s.name s.start s.stop
            self.(i)
            (String.concat "\t" (Array.to_list (Array.map string_of_int c))))
        spans);
  path

let traced (w : W.name) ~seed ~seconds =
  (* 1. the TCP loop against a served database *)
  let env = setup ~seed ~serve:true in
  describe_run w ~seed env;
  let srv = Option.get env.srv in
  (* Wal.stats is the live record: copy the fields *)
  let wal_counts () =
    let s = wal_stats env.db in
    (s.Wal.flushes, s.Wal.appender_batches, s.Wal.appender_txns)
  in
  let prom0 = Server.render_prometheus srv and flushes0, batches0, txns0 = wal_counts () in
  let deadline = now () +. (seconds /. 2.) in
  let loop, _ = drive ~port:(port env) (List.map (fun next -> (next, until deadline)) (streams w ~seed env)) in
  let loop =
    match w with
    | W.Oltp_write -> loop
    | W.Oltp_read | W.Nf2_scan ->
        let pg = probe_gen ~seed env in
        loop @ fst (drive ~port:(port env) [ ((fun () -> W.next_write pg), writes_below trace_probe_writes) ])
  in
  let prom1 = Server.render_prometheus srv and flushes1, batches1, txns1 = wal_counts () in
  teardown env;
  let ops = List.map (fun s -> s.op) loop in
  let nops = List.length ops in
  let is_write = Array.of_list (List.map (fun (o : W.op) -> o.W.write) ops) in
  let writes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 is_write in
  let per_write x = float_of_int x /. float_of_int (max 1 writes) in
  let per_op x = float_of_int x /. float_of_int (max 1 nops) in
  (* 2. in-process replays of the same operations, each on a database
     built the same way: untraced before and after the traced one, so
     the overhead estimate is not an artefact of order *)
  let untraced () =
    let env_u = setup ~seed ~serve:false in
    let r = time (fun () -> replay env_u.db ops ~wrap:{ sp = (fun _ f -> f ()) } ~each:(fun _ run -> run ())) in
    teardown env_u;
    r
  in
  let bad_u1, untraced_1 = untraced () in
  let env_t = setup ~seed ~serve:false in
  let tr = { tdb = env_t.db; next_id = 0; cur = -1; op_id = 0; spans = [] } in
  let bad_t, traced_s =
    time (fun () ->
        replay env_t.db ops
          ~wrap:{ sp = (fun name f -> span tr name f) }
          ~each:(fun i run ->
            tr.op_id <- i;
            span tr "op" run))
  in
  let mv = Db.mvcc_stats env_t.db in
  teardown env_t;
  let bad_u2, untraced_2 = untraced () in
  let bad_u = bad_u1 + bad_u2 and untraced_s = (untraced_1 +. untraced_2) /. 2. in
  let spans = Array.of_list (List.sort (fun ((a : Stats.span), _) (b, _) -> compare a.id b.id) tr.spans) in
  let plain = Array.map fst spans in
  let self = Stats.self_times plain in
  let path = write_spans w spans self in
  (* per-layer self time, median over the operations that have it *)
  let self_us ?(only = fun _ -> true) name =
    let xs = List.filter_map (fun (op, ns) -> if only op then Some (float_of_int ns /. 1e3) else None)
        (Stats.self_by_op plain self name) in
    if xs = [] then 0. else Stats.median xs
  in
  let reads_only op = not is_write.(op) and writes_only op = is_write.(op) in
  (* counter totals over the layer spans (direct children of an op) *)
  let total name =
    let k = counter name in
    Array.fold_left
      (fun a ((s : Stats.span), c) -> if s.parent >= 0 && plain.(s.parent).name = "op" then a + c.(k) else a)
      0 spans
  in
  (* in-process stack per op: the summed durations of its layer calls *)
  let stack = Array.make nops 0 in
  Array.iter
    (fun (s : Stats.span) ->
      if s.parent >= 0 && plain.(s.parent).name = "op" then stack.(s.op) <- stack.(s.op) + (s.stop - s.start))
    plain;
  let rtt_us = List.map (fun s -> s.lat *. 1e6) loop in
  let remainder_us = List.mapi (fun i r -> r -. (float_of_int stack.(i) /. 1e3)) rtt_us in
  let prom name = prom_value prom1 ("aimii_" ^ name) -. prom_value prom0 ("aimii_" ^ name) in
  (* The tracer's own cost is the self time of the op roots: every
     counter snapshot and span record happens there, outside the layer
     spans.  The wall-clock difference between the replays is printed
     too; on a shared host it is often within their run-to-run noise. *)
  let roots = List.filter (fun i -> plain.(i).name = "op") (List.init (Array.length plain) Fun.id) in
  let root_self = List.fold_left (fun a i -> a + self.(i)) 0 roots in
  let overhead = float_of_int root_self /. float_of_int (Array.fold_left ( + ) 0 stack) *. 100. in
  Printf.printf "  traced run: %d ops (%d writes) over TCP, replayed in-process untraced in %.3f s / %.3f s and traced in %.3f s (%+.1f%%)\n"
    nops writes untraced_1 untraced_2 traced_s ((traced_s -. untraced_s) /. untraced_s *. 100.);
  Printf.printf "  tracer self time %.1f%% of the traced layer time; %d spans written to %s\n" overhead
    (Array.length spans) path;
  let loop_failed = List.length (List.filter (fun s -> not s.ok) loop) in
  let loop_wrong = List.length (List.filter (fun s -> s.wrong) loop) in
  let metrics =
    [
      ("server.rtt_us", Stats.median rtt_us, "us");
      ("server.codec_us", self_us "server.codec", "us");
      ("server.remainder_us", Stats.median remainder_us, "us");
      ("server.lock_wait_ms", prom "lock_wait_ns" /. 1e6 /. float_of_int (max 1 writes), "ms/write");
      ("server.txn_slot_waits", prom "txn_slot_waits" /. float_of_int (max 1 writes), "1/write");
      ("lang.parse_us", self_us "lang.parse", "us");
      ("lang.rewrite_us", self_us "lang.rewrite", "us");
      ("plan.plan_us", self_us ~only:reads_only "plan.plan", "us");
      ("plan.seq_scans", per_op (total "seq_scans"), "1/op");
      ("plan.index_scans", per_op (total "index_scans"), "1/op");
      ("plan.index_intersections", per_op (total "index_intersections"), "1/op");
      ("mvcc.snapshot_us", self_us ~only:reads_only "mvcc.snapshot", "us");
      ("mvcc.bytes_live_mb", float_of_int mv.Mvcc.bytes_live /. 1e6, "MB");
      ("mvcc.versions_live", float_of_int mv.Mvcc.versions_live, "count");
      ("core.read_us", self_us ~only:reads_only "core.read", "us");
      ("core.exec_us", self_us ~only:writes_only "core.exec", "us");
      ("core.commit_us", self_us ~only:writes_only "core.commit", "us");
      ("store.subtuple_reads_per_op", per_op (total "subtuple_reads"), "1/op");
      ("pool.hits_per_op", per_op (total "pool_hits"), "1/op");
      ("pool.misses_per_op", per_op (total "pool_misses"), "1/op");
      ("pool.evictions_per_op", per_op (total "pool_evictions"), "1/op");
      ("disk.reads_per_op", per_op (total "disk_reads"), "1/op");
      ("disk.writes_per_op", per_op (total "disk_writes"), "1/op");
      ("wal.records_per_write", per_write (total "wal_records"), "1/write");
      ("wal.bytes_per_write", per_write (total "wal_bytes"), "B/write");
      ("wal.flushes_per_write", per_write (flushes1 - flushes0), "1/write");
      ( "wal.batch_txns_mean",
        (if batches1 = batches0 then 0.
         else float_of_int (txns1 - txns0) /. float_of_int (batches1 - batches0)),
        "txn/batch" );
      ("gc.alloc_mb_per_op", per_op (total "alloc_words") *. float_of_int (Sys.word_size / 8) /. 1e6, "MB/op");
      ("trace.overhead_pct", overhead, "%");
    ]
  in
  let correct = loop_wrong = 0 && bad_u = 0 && bad_t = 0 in
  print_result ~correct ~attempted:nops ~failed:(loop_failed + bad_u + bad_t) metrics;
  if not correct then exit 1

let () =
  let w = match List.assoc_opt (arg "workload") W.names with Some w -> w | None -> usage () in
  let seed = int_arg "seed" in
  let seconds = match float_of_string_opt (arg "seconds") with Some s when s > 0. -> s | _ -> usage () in
  match (arg "trace", Hashtbl.find_opt args "part") with
  | "0", None -> end_to_end w ~seed ~seconds
  | "0", Some i ->
      let index = match int_of_string_opt i with Some n -> n | None -> usage () in
      let p = run_part w ~seed ~seconds ~index in
      Out_channel.with_open_bin (part_file w index) (fun oc -> Marshal.to_channel oc p []);
      if p.p_wrong > 0 || not p.p_durable then exit 1
  | "1", None -> traced w ~seed ~seconds
  | _ -> usage ()
