(** Execution counters for instrumented validation.

    A mutable record of low-level work counts — memo-table traffic and
    path evaluations — threaded as an optional argument through
    {!Conformance} and [Provenance.Neighborhood].  Counting is off (and
    free) unless a caller supplies a record; the parallel fragment engine
    gives each worker its own record and sums them afterwards, so no
    synchronization is needed here.

    The intended invariant, checked by the test suite:
    [memo_lookups = memo_hits + memo_misses]. *)

type t = {
  mutable memo_lookups : int;  (** memo-table probes *)
  mutable memo_hits : int;     (** probes answered from the table *)
  mutable memo_misses : int;   (** probes that fell through to compute *)
  mutable path_evals : int;    (** path-expression evaluations [[E]](v) *)
  mutable path_memo_lookups : int;
      (** per-(path, node) memo probes ({!Path_memo}) *)
  mutable path_memo_hits : int;
      (** path-memo probes answered from the table *)
  mutable path_memo_misses : int;
      (** path-memo probes that fell through to {!Rdf.Path.eval} *)
  mutable store_lookups : int;
      (** adjacency-index probes made by path evaluation (the [lookup]
          hook of {!Rdf.Path.eval}) *)
  mutable batch_calls : int;
      (** set-at-a-time kernel passes ({!Rdf.Path.Batch}) of the
          engine's priming phase, one per (path, source set) *)
  mutable batch_sources : int;
      (** source nodes evaluated across all batch calls *)
  mutable rows_materialized : int;
      (** kernel memo entries created by batch calls *)
}

val create : unit -> t
(** A fresh all-zero record. *)

val add : into:t -> t -> unit
(** [add ~into c] accumulates [c] into [into], field by field. *)

val total : t list -> t
(** Field-wise sum of a list of records. *)
