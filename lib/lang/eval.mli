(** Evaluator for the AIM-II query language: result typing, and the
    evaluation of expressions, predicates (quantifiers included) and
    FROM ranges in a binding environment — the "loop" mental model the
    paper gives for variable bindings (Section 3, Example 2).  SELECTs,
    nested ones included, run on the planner's executor ({!Nf2_plan}),
    which installs itself through {!install_query_executor}. *)

module Atom = Nf2_model.Atom
module Schema = Nf2_model.Schema
module Value = Nf2_model.Value
module Rel = Nf2_algebra.Rel
module VI = Nf2_index.Value_index
module TI = Nf2_index.Text_index
module Tid = Nf2_storage.Tid

exception Eval_error of string

(** What the evaluator needs to know about one stored table. *)
type source_table = {
  schema : Schema.t;
  versioned : bool;
  scan : unit -> Value.tuple list;  (** current contents *)
  scan_asof : (int -> Value.tuple list) option;
      (** versioned tables: date/timestamp ASOF (Section 5) *)
  scan_asof_lsn : (int -> Value.tuple list) option;
      (** unversioned tables under MVCC: [ASOF <int>] selects the
          newest committed version at or below that commit LSN
          (time-travel = old snapshot); raises
          {!Nf2_temporal.Mvcc.Snapshot_too_old} below the GC horizon *)
  roots : (unit -> Tid.t list) option;  (** for index plans *)
  fetch_root : (Tid.t -> Value.tuple) option;
  indexes : (Schema.path * VI.t) list;
  text_indexes : (Schema.path * TI.t) list;
}

(** Case-insensitive table lookup. *)
type catalog = string -> source_table option

(** Variable bindings, innermost first. *)
type env = (string * (Schema.table * Value.tuple)) list

val eval_pred : catalog -> env -> Ast.pred -> bool
val eval_expr : catalog -> env -> Ast.expr -> Value.v

(** Result schema of a query in a typing environment. *)
val type_query : catalog -> (string * Schema.table) list -> Ast.query -> Schema.table

(** {1 Executor interface} *)

(** Install the query executor that every SELECT runs on — top-level
    and nested in expressions, predicates and quantifier bodies.  The
    executor lives in {!Nf2_plan}, which depends on this library, and
    installs itself when linked. *)
val install_query_executor : (catalog -> env -> Ast.query -> Rel.t) -> unit

(** Materialize one FROM range in an environment (stored table, ASOF
    state, or unnested subtable). *)
val range_tuples : catalog -> env -> Ast.range -> Schema.table * Value.tuple list

(** Comparison used by predicates and ORDER BY: atoms compare as atoms
    (scalar coercion first), everything else structurally. *)
val compare_values : Value.v -> Value.v -> int

(** Collapse single-attribute, single-tuple tables to their atom. *)
val coerce_atom : Value.v -> Atom.t option

(** Innermost binding of a variable (case-insensitive). *)
val lookup_var : env -> string -> (Schema.table * Value.tuple) option

(** The dynamically-scoped trace context: the trace and the cursor
    node under which evaluation opens its spans ([None]: untraced). *)
val get_tracing : unit -> (Nf2_obs.Trace.t * Nf2_obs.Trace.node) option

(** Run [f] with the trace context set to [cursor]: predicate /
    expression evaluation inside [f] opens its quantifier, subquery, and
    subscript spans under that node.  Restores the previous context on
    exit. *)
val with_trace_cursor :
  (Nf2_obs.Trace.t * Nf2_obs.Trace.node) option -> (unit -> 'a) -> 'a
