(** A per-(path, node) memo table for [[E]](v) evaluations.

    Distinct shapes of a schema routinely walk the same property paths
    from the same focus nodes (in the paper's survey suite nearly every
    shape starts with the [rdf:type/rdfs:subClassOf*] class path).  The
    graph is immutable during a run and {!Rdf.Path.eval} is pure, so
    its results can be shared safely across shapes, checkers and memo
    scopes — the containment planner threads one table per worker
    through {!Conformance} and [Provenance.Neighborhood].

    Entries are keyed per graph (by {!Rdf.Graph.uid}) as well as per
    (path, node), so a table that outlives one graph — reused across
    service requests, or used while a graph is being edited between
    runs — never serves a result computed on a different triple set.

    Not thread-safe: use one table per domain.

    A hit costs one {!Runtime.Budget.tick} where the evaluation it
    replaces would have ticked per visited edge, so budget/fuel
    accounting differs (only ever in the cheaper direction) between
    optimized and unoptimized runs. *)

type t

val create : unit -> t
(** A fresh, empty table. *)

val worth_memoizing : Rdf.Path.t -> bool
(** Whether the table caches this path at all: bare forward/inverse
    steps ([p], [p⁻]) are cheaper to re-evaluate than to hash. *)

val eval :
  ?counters:Counters.t ->
  ?fresh:(Rdf.Path.t -> Rdf.Term.t -> Rdf.Term.Set.t) ->
  t -> Runtime.Budget.t -> Rdf.Graph.t -> Rdf.Path.t -> Rdf.Term.t ->
  Rdf.Term.Set.t
(** [eval table budget g e a] is [[E]](a) on [g], answered from the
    table when present.  Bare forward/inverse steps ([p] and [p⁻])
    bypass the table — a single index lookup is as cheap as the hash —
    and count only a [path_eval].  Compound paths count a
    [path_memo_lookup] plus a hit or a miss; a miss also counts a
    [path_eval], so [path_evals] reflects real evaluations exactly as
    in the unmemoized path.

    [fresh] replaces the built-in per-node evaluation on misses (and
    for paths that bypass the table).  It must return exactly [[E]](a)
    and charge the budget's step hook itself — the row checker passes
    its id-space kernel here so memo misses and kernel traces share one
    set of memoized expansions. *)
