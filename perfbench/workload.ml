(* Dataset, answer model and operation streams of the three workloads.

   Everything here is a function of the seed: the generated tables, the
   key permutation behind the Zipf draws, the op mix and every literal
   in the SQL.  The program under test only ever sees the SQL text. *)

module Db = Nf2.Db
module G = Nf2_workload.Generator
module P = Nf2_workload.Paper_data
module Value = Nf2_model.Value
module Atom = Nf2_model.Atom

let departments = 1000
let reports = 2000
let budget_months = 12

type name = Oltp_read | Oltp_write | Nf2_scan

let names = [ ("oltp_read", Oltp_read); ("oltp_write", Oltp_write); ("nf2_scan", Nf2_scan) ]
let to_string w = fst (List.find (fun (_, x) -> x = w) names)

(* ------------------------------------------------------------------ *)
(* Model of DEPARTMENTS: what every read must return.                 *)

type dept = {
  dno : int;
  mutable mgrno : int;
  mutable budget : int;
  mutable projects : (int * string) list;  (** (PNO, PNAME) *)
  empnos : int array;  (** members at load time *)
}

let int_of = function Value.Atom (Atom.Int i) -> i | _ -> invalid_arg "int_of"
let str_of = function Value.Atom (Atom.Str s) -> s | _ -> invalid_arg "str_of"
let tuples_of = function Value.Table t -> t.Value.tuples | _ -> invalid_arg "tuples_of"

let dept_of_tuple (t : Value.tuple) =
  match t with
  | [ dno; mgr; projects; budget; _equip ] ->
      let ps = tuples_of projects in
      {
        dno = int_of dno;
        mgrno = int_of mgr;
        budget = int_of budget;
        projects =
          List.map (function pno :: pname :: _ -> (int_of pno, str_of pname) | _ -> assert false) ps;
        empnos =
          Array.of_list
            (List.concat_map
               (function
                 | [ _; _; members ] -> List.map (fun m -> int_of (List.hd m)) (tuples_of members)
                 | _ -> assert false)
               ps);
      }
  | _ -> invalid_arg "dept_of_tuple"

let cell_int i = Value.render_v (Value.Atom (Atom.Int i))
let cell_str s = Value.render_v (Value.Atom (Atom.Str s))

let point_sql dno =
  Printf.sprintf
    "SELECT x.DNO, x.MGRNO, x.BUDGET, COUNT(x.PROJECTS), SUM(x.PROJECTS.PNO) FROM x IN DEPARTMENTS \
     WHERE x.DNO = %d"
    dno

let point_row d =
  [
    cell_int d.dno;
    cell_int d.mgrno;
    cell_int d.budget;
    cell_int (List.length d.projects);
    cell_int (List.fold_left (fun a (p, _) -> a + p) 0 d.projects);
  ]

let projects_rows d = List.map (fun (p, n) -> [ cell_int p; cell_str n ]) d.projects

(* Whole-table views compared after crash recovery. *)
let summary_sql = "SELECT x.DNO, x.MGRNO, x.BUDGET FROM x IN DEPARTMENTS"
let summary_rows ds = List.map (fun d -> [ cell_int d.dno; cell_int d.mgrno; cell_int d.budget ]) ds
let all_projects_sql = "SELECT x.DNO, y.PNO, y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS"

let all_projects_rows ds =
  List.concat_map (fun d -> List.map (fun (p, n) -> [ cell_int d.dno; cell_int p; cell_str n ]) d.projects) ds

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)

type dataset = {
  depts : Value.tuple list;
  reps : Value.tuple list;
  budgets_sql : string list;  (** DDL, load and the dated history of BUDGETS *)
  subtuples : int;  (** data subtuples of DEPARTMENTS *)
}

let rec count_subtuples (t : Value.tuple) =
  1
  + List.fold_left
      (fun acc v ->
        match v with
        | Value.Table tb -> acc + List.fold_left (fun a u -> a + count_subtuples u) 0 tb.Value.tuples
        | _ -> acc)
      0 t

let generate ~seed : dataset =
  let depts =
    G.departments ~params:{ G.default_dept_params with G.departments; seed } ()
  in
  let reps = G.reports ~params:{ G.default_report_params with G.reports; seed } () in
  let rng = Random.State.make [| seed; 17 |] in
  let rows =
    List.mapi
      (fun i _ ->
        Printf.sprintf "(%d, %d, {('staff', %d), ('travel', %d)})" (100 + i)
          (Random.State.int rng 900_000)
          (Random.State.int rng 50_000)
          (Random.State.int rng 10_000))
      depts
  in
  (* every dated update touches half the departments, a seeded window *)
  let history =
    List.init (budget_months - 1) (fun k ->
        let lo = 100 + Random.State.int rng (departments / 2) in
        Printf.sprintf
          "UPDATE BUDGETS SET AMOUNT = AMOUNT + %d WHERE DNO >= %d AND DNO < %d AT DATE '1984-%02d-01'"
          (Random.State.int rng 50_000)
          lo
          (lo + (departments / 2))
          (k + 2))
  in
  {
    depts;
    reps;
    budgets_sql =
      ("CREATE TABLE BUDGETS (DNO INT, AMOUNT INT, ITEMS TABLE (CAT TEXT, AMT INT)) WITH VERSIONS"
      :: ("INSERT INTO BUDGETS VALUES " ^ String.concat ", " rows)
      :: history);
    subtuples = List.fold_left (fun a t -> a + count_subtuples t) 0 depts;
  }

(* Load the dataset into a fresh database and make it durable: the
   loaded state is checkpointed into a freshly attached WAL, as a bulk
   load before going live would be. *)
let load (ds : dataset) : Db.t =
  let db = Db.create () in
  Db.register_table db P.departments ds.depts;
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (DNO)");
  ignore (Db.exec db "CREATE INDEX ON DEPARTMENTS (PROJECTS.MEMBERS.EMPNO)");
  Db.register_table db P.reports ds.reps;
  ignore (Db.exec db "CREATE TEXT INDEX ON REPORTS (TITLE)");
  List.iter (fun sql -> ignore (Db.exec db sql)) ds.budgets_sql;
  Db.attach_wal db;
  ignore (Db.wal_checkpoint db);
  db

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type kind = Point | Member | Projects | Scan of int | Update | Ins_proj | Del_proj | Ins_dept | Del_dept

let kind_name = function
  | Point -> "point"
  | Member -> "member"
  | Projects -> "projects"
  | Scan i -> Printf.sprintf "scan%d" i
  | Update -> "update"
  | Ins_proj -> "ins_proj"
  | Del_proj -> "del_proj"
  | Ins_dept -> "ins_dept"
  | Del_dept -> "del_dept"

type expect =
  | Rows of string list list  (** the result rows, sorted *)
  | Digest of string  (** digest of the sorted result rows *)
  | Affected of int

type op = {
  client : int;
  kind : kind;
  sql : string;
  write : bool;
  expect : expect;
  on_ack : unit -> unit;  (** model update once the write is acknowledged *)
}

let rows_digest rows =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (String.concat "\t") (List.sort compare rows))))

let check (e : expect) (rows : string list list) =
  match e with
  | Rows r -> List.sort compare rows = r
  | Digest d -> rows_digest rows = d
  | Affected _ -> false

let read_op client kind sql rows =
  { client; kind; sql; write = false; expect = Rows (List.sort compare rows); on_ack = ignore }

(* Zipf(0.99) over ranks 0..n-1. *)
let zipf_cdf n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** 0.99)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A seeded shuffle of a fixed multiset of op classes, dealt again when
   empty: every block of ops has the same composition, so the mix does
   not drift with the seed. *)
type 'a deck = { cards : 'a array; mutable hand : 'a list }

let deck cards = { cards = Array.of_list (List.concat_map (fun (n, c) -> List.init n (fun _ -> c)) cards); hand = [] }

let rec deal rng d =
  match d.hand with
  | c :: rest ->
      d.hand <- rest;
      c
  | [] ->
      d.hand <- Array.to_list (shuffle rng (Array.copy d.cards));
      deal rng d

(* One client's stream.  [keys] are the departments this client may
   read and write, hottest first; no other client writes them. *)
type gen = {
  id : int;
  rng : Random.State.t;
  keys : dept array;
  cdf : float array;
  reads : kind deck;  (** oltp_read: 60% point, 30% member, 10% PROJECTS *)
  writes : kind deck;  (** 50% UPDATE, 30% project, 20% department insert/delete *)
  rw : bool deck;  (** oltp_write: half reads, half writes *)
  mutable added_depts : dept list;  (** inserted by this client, still present *)
  mutable added_projs : (dept * int) list;  (** (department, PNO) added, still present *)
  mutable counter : int;
}

(* [zipf:false] draws keys uniformly: the write streams spread their
   writes over many objects, so per-write costs do not hinge on which
   few objects the seed made hot. *)
let make_gen ~seed ~id ~zipf keys =
  let n = Array.length keys in
  {
    id;
    rng = Random.State.make [| seed; 1000 + id |];
    keys;
    cdf = (if zipf then zipf_cdf n else Array.init n (fun k -> float_of_int (k + 1) /. float_of_int n));
    reads = deck [ (6, Point); (3, Member); (1, Projects) ];
    writes = deck [ (5, Update); (3, Ins_proj); (2, Ins_dept) ];
    rw = deck [ (1, true); (1, false) ];
    added_depts = [];
    added_projs = [];
    counter = 0;
  }

let hot g = g.keys.(zipf_draw g.cdf g.rng)

let fresh g =
  g.counter <- g.counter + 1;
  g.counter

let word g = String.init 4 (fun _ -> Char.chr (65 + Random.State.int g.rng 26))

let write_op g kind sql on_ack =
  { client = g.id; kind; sql; write = true; expect = Affected 1; on_ack }

let update g =
  let d = hot g in
  let budget = 1000 * Random.State.int g.rng 1_000 in
  write_op g Update
    (Printf.sprintf "UPDATE DEPARTMENTS SET BUDGET = %d WHERE DNO = %d" budget d.dno)
    (fun () -> d.budget <- budget)

let ins_proj g =
  let d = hot g in
  let n = fresh g in
  let pno = 5_000_000 + (g.id * 1_000_000) + n and empno = 7_000_000 + (g.id * 1_000_000) + n in
  let pname = word g in
  write_op g Ins_proj
    (Printf.sprintf "INSERT INTO DEPARTMENTS.PROJECTS WHERE DNO = %d VALUES (%d, '%s', {(%d, 'Staff')})"
       d.dno pno pname empno)
    (fun () ->
      d.projects <- (pno, pname) :: d.projects;
      g.added_projs <- (d, pno) :: g.added_projs)

let del_proj g =
  let d, pno = List.nth g.added_projs (Random.State.int g.rng (List.length g.added_projs)) in
  write_op g Del_proj
    (Printf.sprintf "DELETE FROM DEPARTMENTS.PROJECTS WHERE PNO = %d" pno)
    (fun () ->
      d.projects <- List.filter (fun (p, _) -> p <> pno) d.projects;
      g.added_projs <- List.filter (fun (_, p) -> p <> pno) g.added_projs)

let ins_dept g =
  let n = fresh g in
  let dno = 20_000 + (g.id * 10_000) + n in
  let pno = 5_500_000 + (g.id * 1_000_000) + n and empno = 7_500_000 + (g.id * 1_000_000) + n in
  let mgrno = 10_000 + Random.State.int g.rng 90_000 and budget = 1000 * Random.State.int g.rng 1_000 in
  let pname = word g in
  let d = { dno; mgrno; budget; projects = [ (pno, pname) ]; empnos = [| empno |] } in
  write_op g Ins_dept
    (Printf.sprintf "INSERT INTO DEPARTMENTS VALUES (%d, %d, {(%d, '%s', {(%d, 'Leader')})}, %d, {(1, 'PC')})"
       dno mgrno pno pname empno budget)
    (fun () -> g.added_depts <- d :: g.added_depts)

let del_dept g =
  let d = List.nth g.added_depts (Random.State.int g.rng (List.length g.added_depts)) in
  write_op g Del_dept
    (Printf.sprintf "DELETE FROM DEPARTMENTS WHERE DNO = %d" d.dno)
    (fun () -> g.added_depts <- List.filter (fun x -> x != d) g.added_depts)

(* Single-object writes.  A client keeps 4 projects and 2 departments of
   its own: once it has them, each project or department write deletes
   one and the next inserts one again, so the table keeps its size and
   the write mix its composition. *)
let next_write g =
  match deal g.rng g.writes with
  | Ins_proj -> if List.length g.added_projs < 4 then ins_proj g else del_proj g
  | Ins_dept -> if List.length g.added_depts < 2 then ins_dept g else del_dept g
  | _ -> update g

(* Point read of a key this client may read: mostly the hot originals,
   sometimes a department the client inserted. *)
let next_point g =
  let d =
    match g.added_depts with
    | _ :: _ when Random.State.int g.rng 10 = 0 ->
        List.nth g.added_depts (Random.State.int g.rng (List.length g.added_depts))
    | _ -> hot g
  in
  read_op g.id Point (point_sql d.dno) [ point_row d ]

let next_oltp_read g =
  let d = hot g in
  match deal g.rng g.reads with
  | Point -> read_op g.id Point (point_sql d.dno) [ point_row d ]
  | Member ->
    let e = d.empnos.(Random.State.int g.rng (Array.length d.empnos)) in
    read_op g.id Member
      (Printf.sprintf
         "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : EXISTS z IN y.MEMBERS : \
          z.EMPNO = %d"
         e)
      [ [ cell_int d.dno ] ]
  | _ ->
    read_op g.id Projects
      (Printf.sprintf "SELECT y.PNO, y.PNAME FROM x IN DEPARTMENTS, y IN x.PROJECTS WHERE x.DNO = %d"
         d.dno)
      (projects_rows d)

(* oltp_write: half point reads, half single-object writes. *)
let next_oltp_write g = if deal g.rng g.rw then next_point g else next_write g

(* ------------------------------------------------------------------ *)
(* nf2_scan: whole-table NF² queries.  Each round runs the five queries
   in a seeded order; each query draws one of a few seeded variants, so
   the distinct SQL texts are few and their expected answers can be
   computed up front. *)

let scan_variants ~seed =
  let rng = Random.State.make [| seed; 31 |] in
  let funcs = Array.sub (shuffle rng (Array.copy G.functions)) 0 3 in
  let months = Array.init 3 (fun _ -> 1 + Random.State.int rng budget_months) in
  [|
    Array.map
      (fun f ->
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, (SELECT y.PNO, y.PNAME, (SELECT z.EMPNO, z.FUNCTION FROM z IN \
           y.MEMBERS WHERE z.FUNCTION = '%s') = MEMBERS FROM y IN x.PROJECTS) = PROJECTS, x.BUDGET \
           FROM x IN DEPARTMENTS"
          f)
      funcs;
    Array.map
      (fun f ->
        Printf.sprintf
          "SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO FROM x IN DEPARTMENTS, y IN x.PROJECTS, z \
           IN y.MEMBERS WHERE z.FUNCTION = '%s'"
          f)
      funcs;
    Array.map
      (fun f ->
        Printf.sprintf
          "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS : ALL z IN \
           y.MEMBERS : z.FUNCTION <> '%s'"
          f)
      funcs;
    [| "SELECT x.REPNO, x.TITLE FROM x IN REPORTS WHERE x.TITLE CONTAINS '*comput*'" |];
    Array.map
      (fun m ->
        Printf.sprintf
          "SELECT x.DNO, x.AMOUNT, x.ITEMS FROM x IN BUDGETS ASOF DATE '1984-%02d-15' WHERE x.AMOUNT \
           > 400000"
          m)
      months;
  |]

type scan_gen = {
  srng : Random.State.t;
  variants : string array array;
  expected : (string, string) Hashtbl.t;  (** SQL -> digest *)
  mutable round : int list;
}

(* Expected answers come from the same statements run in-process with
   the planner forced to sequential plans. *)
let make_scan_gen ~seed db =
  let variants = scan_variants ~seed in
  let expected = Hashtbl.create 16 in
  Db.set_plan_force_seq db true;
  Array.iter
    (Array.iter (fun sql ->
         let rel = Db.query db sql in
         let rows = List.map (List.map Value.render_v) (Nf2_algebra.Rel.tuples rel) in
         Hashtbl.replace expected sql (rows_digest rows)))
    variants;
  Db.set_plan_force_seq db false;
  { srng = Random.State.make [| seed; 41 |]; variants; expected; round = [] }

let next_scan s =
  (match s.round with
  | [] -> s.round <- Array.to_list (shuffle s.srng (Array.init (Array.length s.variants) Fun.id))
  | _ -> ());
  let q = List.hd s.round in
  s.round <- List.tl s.round;
  let vs = s.variants.(q) in
  let sql = vs.(Random.State.int s.srng (Array.length vs)) in
  { client = 0; kind = Scan q; sql; write = false; expect = Digest (Hashtbl.find s.expected sql); on_ack = ignore }
