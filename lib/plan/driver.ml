(* Execution driver: runs a planned query through the volcano
   operators, delegating predicate / expression / range evaluation to
   {!Eval}.  It is the only query executor: top-level SELECTs come in
   through {!run}, and every SELECT nested in a select list, a
   predicate or a quantifier body — including those in the WHERE
   clauses of UPDATE / DELETE / INSERT — comes back in through the
   executor installed into {!Eval} below, inside the binding
   environment of the row that evaluates it.  The differential test in
   [test_plan.ml] holds results to byte equality across plan shapes.

   Contracts the tests pin:
   - plan notes: inner-join notes at access construction, the
     first-range access note when the first range is actually read;
     nested SELECTs emit none;
   - trace spans: "query" at the trace root, "subquery (<text>)"
     elsewhere, per-range "scan T", "join v IN T", "unnest v IN p"
     under it; quantifier and nested subquery spans open under the
     query node via {!Eval.with_trace_cursor};
   - ORDER BY / DISTINCT / set-kind handling applies to the row
     sequence of the nested-loop binding order. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module Tid = Nf2_storage.Tid
module Tr = Nf2_obs.Trace
module Eval = Nf2_lang.Eval
module Rewrite = Nf2_lang.Rewrite
open Nf2_lang.Ast

type access_kind = [ `Seq | `Index | `Intersect ]

let eval_err fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

(* What executing a query needs besides the outer row: its plan, its
   result schema (typed in the outer typing environment) and how each
   ORDER BY key is read.  None of it depends on the outer row's values. *)
type prepared = {
  pl : Planner.t;
  result_schema : Schema.table;
  order_modes : [ `Column of int | `Env of expr ] list;
}

(* The typing pass comes first, so type errors surface before any plan
   note is emitted. *)
let prepare (catalog : Eval.catalog) (tenv : (string * Schema.table) list) (q : query) ~plan =
  let result_schema = Eval.type_query catalog tenv q in
  let order_modes =
    List.map
      (fun (oi : order_item) ->
        match oi.key with
        | Path { var = Some name; steps = [] } -> (
            match Schema.find_field result_schema name with
            | Some (i, _) -> `Column i
            | None -> `Env oi.key)
        | e -> `Env e)
      q.order_by
  in
  { pl = plan (); result_schema; order_modes }

(* Execute [q] inside the outer bindings [outer] (empty at top level):
   the iterator is seeded with [outer], so correlated references
   resolve against the enclosing row. *)
let execute ?plan_note ?on_access ~(outer : Eval.env) ~prepared (catalog : Eval.catalog)
    (q : query) : Rel.t =
  let { pl; result_schema; order_modes } = prepared in
  let note s = match plan_note with Some f -> f s | None -> () in
  (* access callbacks carry the range's source table so the sink can
     attribute (or deliberately ignore, for SYS sources) the access *)
  let fire name k = match on_access with Some f -> f name k | None -> () in
  let range_name (r : range) =
    match r.source with Table_src t -> t | Path_src _ -> ""
  in
  let qnode =
    Option.map
      (fun (tr, parent) ->
        let label =
          if parent == Tr.root tr then "query"
          else "subquery (" ^ Planner.abbrev (query_to_string q) ^ ")"
        in
        (tr, Tr.child parent label))
      (Eval.get_tracing ())
  in
  let body () =
    (* one access function per FROM range *)
    let mk (r : range) kind : Eval.env -> Schema.table * Value.tuple list =
      match kind with
      | `First (Planner.F_index { name; sets; intersect; _ }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let fetch =
            match st.Eval.fetch_root with Some f -> f | None -> assert false
          in
          let table = st.Eval.schema.Schema.table in
          fun _env ->
            let cands =
              match sets with
              | [] -> assert false
              | s0 :: rest ->
                  List.fold_left
                    (fun acc (cs : Planner.cand_set) ->
                      let s = cs.Planner.cs_probe () in
                      List.filter (fun t -> List.exists (Tid.equal t) s) acc)
                    (s0.Planner.cs_probe ()) rest
            in
            let desc =
              String.concat " & " (List.map (fun cs -> cs.Planner.cs_desc) sets)
            in
            note
              (Printf.sprintf "scan %s via %s -> %d candidate object(s)" name desc
                 (List.length cands));
            fire name (if intersect then `Intersect else `Index);
            (table, Exec.to_list (Exec.index_scan ~fetch cands))
      | `First (Planner.F_range { scan_note; seq }) ->
          fun env ->
            (match scan_note with Some s -> note s | None -> ());
            if seq then fire (range_name r) `Seq;
            Eval.range_tuples catalog env r
      | `Inner (Planner.I_hash { name; ai; probe; join_note }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let table = st.Eval.schema.Schema.table in
          let hash =
            lazy
              (Exec.hash_build
                 ~key:(fun tup ->
                   match List.nth tup ai with
                   | Value.Atom a -> Some (Atom.to_key a)
                   | Value.Table _ -> None)
                 (st.Eval.scan ()))
          in
          note join_note;
          fun env -> (
            match try Some (Eval.eval_expr catalog env probe) with Eval.Eval_error _ -> None with
            | Some v -> (
                match Eval.coerce_atom v with
                | Some a -> (table, Lazy.force hash (Atom.to_key a))
                | None -> Eval.range_tuples catalog env r)
            | None ->
                (* probe references a later variable: full scan *)
                Eval.range_tuples catalog env r)
      | `Inner (Planner.I_inl { name; probe; vi; join_note }) ->
          let st = match catalog name with Some st -> st | None -> assert false in
          let table = st.Eval.schema.Schema.table in
          let fetch =
            match st.Eval.fetch_root with Some f -> f | None -> assert false
          in
          note join_note;
          fun env -> (
            match try Some (Eval.eval_expr catalog env probe) with Eval.Eval_error _ -> None with
            | Some v -> (
                match Eval.coerce_atom v with
                | Some a ->
                    fire name `Index;
                    (table, Exec.to_list (Exec.index_scan ~fetch (VI.roots_for vi a)))
                | None -> Eval.range_tuples catalog env r)
            | None -> Eval.range_tuples catalog env r)
      | `Inner (Planner.I_bnl _) ->
          let block =
            lazy
              (fire (range_name r) `Seq;
               Eval.range_tuples catalog [] r)
          in
          fun _env -> Lazy.force block
      | `Inner (Planner.I_range { seq }) ->
          fun env ->
            if seq then fire (range_name r) `Seq;
            Eval.range_tuples catalog env r
    in
    let traced lbl anode access =
      match qnode with
      | None -> access
      | Some (tr, qn) ->
          let node = Tr.child qn lbl in
          Tr.set_detail node (Plan.annot anode);
          fun env ->
            Tr.timed tr node (fun () ->
                let tbl, tuples = access env in
                Tr.add_rows node (List.length tuples);
                (tbl, tuples))
    in
    let kinds =
      match q.from, pl.Planner.first with
      | [], _ -> []
      | _ :: _, None -> assert false
      | _ :: _, Some f -> `First f :: List.map (fun i -> `Inner i) pl.Planner.inners
    in
    let rec zip4 ranges kinds labels anodes =
      match ranges, kinds, labels, anodes with
      | [], [], [], [] -> []
      | r :: rs, k :: ks, l :: ls, a :: als ->
          (r, traced l a (mk r k)) :: zip4 rs ks ls als
      | _ -> assert false
    in
    let accesses = zip4 q.from kinds pl.Planner.labels pl.Planner.access_nodes in
    let step it (r, access) =
      Exec.flat_map
        (fun env ->
          let tbl, tuples = access env in
          List.map (fun tup -> (r.rvar, (tbl, tup)) :: env) tuples)
        it
    in
    let it = List.fold_left step (Exec.singleton outer) accesses in
    let it =
      match q.where with
      | None -> it
      | Some w -> Exec.filter (fun env -> Eval.eval_pred catalog env w) it
    in
    let emit env =
      let row =
        match q.select with
        | Star ->
            List.concat_map
              (fun r ->
                match Eval.lookup_var env r.rvar with
                | Some (_, tup) -> tup
                | None -> eval_err "unbound range %s" r.rvar)
              q.from
        | Items items -> List.map (fun { expr; _ } -> Eval.eval_expr catalog env expr) items
      in
      let okeys =
        List.map
          (fun mode -> match mode with `Column _ -> Value.null | `Env e -> Eval.eval_expr catalog env e)
          order_modes
      in
      (row, okeys)
    in
    let keyed_rows = Exec.to_list (Exec.map emit it) in
    let rows = List.map fst keyed_rows in
    let rows =
      if q.order_by <> [] then begin
        let key_of (row, _okeys) mode okey : Value.v =
          match mode with
          | `Column i -> (
              match List.nth_opt row i with
              | Some v -> v
              | None -> eval_err "ORDER BY column out of range")
          | `Env _ -> okey
        in
        List.stable_sort
          (fun a b ->
            let rec cmp modes okeys_a okeys_b obs =
              match modes, okeys_a, okeys_b, obs with
              | [], _, _, _ -> 0
              | m :: ms, ka :: kas, kb :: kbs, (oi : order_item) :: ois ->
                  let c = Eval.compare_values (key_of a m ka) (key_of b m kb) in
                  let c = if oi.descending then -c else c in
                  if c <> 0 then c else cmp ms kas kbs ois
              | _ -> 0
            in
            cmp order_modes (snd a) (snd b) q.order_by)
          keyed_rows
        |> List.map fst
      end
      else rows
    in
    let kind = result_schema.Schema.kind in
    let rows =
      if q.distinct || (kind = Schema.Set && q.order_by = []) then Value.dedup rows else rows
    in
    Rel.trusted result_schema { Value.kind; tuples = rows }
  in
  match qnode with
  | None -> body ()
  | Some (tr, qn) ->
      Eval.with_trace_cursor (Some (tr, qn)) (fun () ->
          Tr.timed tr qn (fun () ->
              let rel = body () in
              Tr.add_rows qn (Rel.cardinality rel);
              rel))

(* The statement being executed on this domain.  Nested SELECTs plan
   with its statistics and [force_seq], and are prepared once per
   statement: neither the plan nor the typing depends on the outer
   row's values, so the per-row executions share them.  Outside a
   statement they are prepared on every execution, without statistics,
   which prefers any sargable index. *)
type statement = {
  stats : Stats.provider;
  force_seq : bool;
  mutable prepared : (query * prepared) list; (* keyed by the physical query node *)
}

let enclosing : statement option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Run [f] as one statement for the SELECTs nested in it. *)
let in_statement ~stats ~force_seq f =
  let saved = Domain.DLS.get enclosing in
  Domain.DLS.set enclosing (Some { stats; force_seq; prepared = [] });
  Fun.protect ~finally:(fun () -> Domain.DLS.set enclosing saved) f

let () =
  Eval.install_query_executor (fun catalog outer q ->
      let prep stats force_seq =
        prepare catalog
          (List.map (fun (v, (tbl, _)) -> (v, tbl)) outer)
          q
          ~plan:(fun () -> Planner.plan ~force_seq ~stats catalog q)
      in
      let prepared =
        match Domain.DLS.get enclosing with
        | None -> prep Stats.none false
        | Some s -> (
            match List.assq_opt q s.prepared with
            | Some p -> p
            | None ->
                let p = prep s.stats s.force_seq in
                s.prepared <- (q, p) :: s.prepared;
                p)
      in
      execute ~outer ~prepared catalog q)

(* Plan and execute a top-level query.  Returns the result and the
   chosen plan tree (estimates only — EXPLAIN ANALYZE pairs it with the
   trace's actuals). *)
let run ?plan_note ?trace ?(force_seq = false) ?on_access ?(rewrite = true) ~stats
    (catalog : Eval.catalog) (q : query) : Rel.t * Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  let pl = Planner.plan ~force_seq ~stats catalog q in
  let rel =
    in_statement ~stats ~force_seq (fun () ->
        Eval.with_trace_cursor
          (Option.map (fun tr -> (tr, Tr.root tr)) trace)
          (fun () ->
            let prepared = prepare catalog [] q ~plan:(fun () -> pl) in
            execute ?plan_note ?on_access ~outer:[] ~prepared catalog q))
  in
  (rel, pl.Planner.tree)

(* Plan without executing: EXPLAIN.  The typing pass still runs (errors
   surface), but no probe and no scan is performed. *)
let explain ?(force_seq = false) ?(rewrite = true) ~stats (catalog : Eval.catalog) (q : query) :
    Plan.node =
  let q = if rewrite then Rewrite.rewrite_query q else q in
  ignore (Eval.type_query catalog [] q);
  (Planner.plan ~force_seq ~stats catalog q).Planner.tree
