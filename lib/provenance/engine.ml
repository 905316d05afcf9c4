open Rdf
open Shacl

type on_error = [ `Fail | `Skip ]

module Stats = struct
  type shape_stat = {
    label : string;
    pruned : bool;
    candidates : int;
    conforming : int;
    wall : float;
    failed : Runtime.Outcome.reason option;
    skipped : int;
    shared_with : string option;
  }

  type t = {
    jobs : int;
    nodes_checked : int;
    conforming : int;
    memo_lookups : int;
    memo_hits : int;
    memo_misses : int;
    path_evals : int;
    path_memo_lookups : int;
    path_memo_hits : int;
    path_memo_misses : int;
    checks_skipped : int;
    requests_shared : int;
    triples_emitted : int;
    retries : int;
    interned_terms : int;
    store_lookups : int;
    batch_calls : int;
    batch_sources : int;
    rows_materialized : int;
    planning : float;
    wall : float;
    shapes : shape_stat list;
  }

  let degraded t = List.exists (fun s -> s.failed <> None) t.shapes

  let failed_shapes t =
    List.filter_map
      (fun s -> Option.map (fun r -> s.label, r) s.failed)
      t.shapes

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>engine: %d job(s), %d candidate(s) checked, %d conforming, %d \
       triple(s) emitted@,memo: %d lookup(s), %d hit(s), %d miss(es); %d \
       path evaluation(s)@,time: planning %.3fs, total %.3fs"
      t.jobs t.nodes_checked t.conforming t.triples_emitted t.memo_lookups
      t.memo_hits t.memo_misses t.path_evals t.planning t.wall;
    (* The optimizer lines only appear when the optimizer did something,
       so unoptimized output is byte-identical to earlier releases. *)
    if t.path_memo_lookups > 0 then
      Format.fprintf ppf "@,path memo: %d lookup(s), %d hit(s), %d miss(es)"
        t.path_memo_lookups t.path_memo_hits t.path_memo_misses;
    if t.checks_skipped > 0 || t.requests_shared > 0 then
      Format.fprintf ppf
        "@,containment: %d check(s) skipped, %d shared request(s)"
        t.checks_skipped t.requests_shared;
    if t.interned_terms > 0 then begin
      Format.fprintf ppf "@,store: %d interned term(s), %d index probe(s)"
        t.interned_terms t.store_lookups;
      if t.batch_calls > 0 then
        Format.fprintf ppf
          "; %d batch call(s), %d batched source(s), %d row(s) materialized"
          t.batch_calls t.batch_sources t.rows_materialized
    end;
    let failures = List.length (failed_shapes t) in
    if failures > 0 || t.retries > 0 then
      Format.fprintf ppf "@,degraded: %d shape(s) failed, %d chunk retry(s)"
        failures t.retries;
    List.iter
      (fun s ->
        Format.fprintf ppf "@,shape %s: %d candidate(s)%s, %d conforming, %.3fs"
          s.label s.candidates
          (if s.pruned then " (target-pruned)" else "")
          s.conforming s.wall;
        if s.skipped > 0 then Format.fprintf ppf ", %d skipped" s.skipped;
        (match s.shared_with with
        | Some rep -> Format.fprintf ppf ", shared with %s" rep
        | None -> ());
        match s.failed with
        | Some reason ->
            Format.fprintf ppf ", FAILED: %a" Runtime.Outcome.pp_reason reason
        | None -> ())
      t.shapes;
    Format.fprintf ppf "@]"
end

type request = {
  label : string;
  shape : Shape.t;
  target : Shape.t option;
}

let request ?label shape =
  let label = match label with Some l -> l | None -> Shape.to_string shape in
  { label; shape; target = None }

let request_of_def (def : Schema.def) =
  { label = Term.to_string def.name;
    shape = Shape.and_ [ def.shape; def.target ];
    target = Some def.target }

let requests_of_schema schema = List.map request_of_def (Schema.defs schema)

(* ---------------- planning ---------------------------------------- *)

(* The candidate set for a request, and whether target pruning applied.

   Soundness: a node contributes a (non-empty) neighborhood only when it
   conforms to the request shape.  For a schema request [phi ∧ tau] every
   conforming node conforms to [tau], so restricting candidates to the
   [tau]-nodes loses nothing; constants of the request shape that are not
   graph nodes are kept when they satisfy [tau], matching the unpruned
   candidate set of [Fragment.frag] exactly.  Monotonicity of [tau]
   (Theorem 4.1's precondition, via [Analysis.Monotone]) is required so
   the pruned fragment keeps the conformance guarantees of Section 4.
   [by_target] answers the target nodes of [tau] (possibly cached). *)
let plan ~schema ~all_nodes ~by_target g r =
  match r.target with
  | Some tau when Analysis.Monotone.is_monotone schema tau ->
      let base =
        by_target tau (fun () ->
            match Validate.fast_targets g tau with
            | Some targets -> targets
            | None -> Conformance.conforming_nodes schema g tau)
      in
      let stray_constants =
        Term.Set.filter
          (fun c -> Conformance.conforms schema g c tau)
          (Shape.constants r.shape)
      in
      Term.Set.union base stray_constants, true
  | _ -> Term.Set.union (Lazy.force all_nodes) (Shape.constants r.shape), false

(* Under the optimizer, work keyed by a target expression runs once per
   distinct target: schemas routinely repeat the same handful of target
   classes, so planning drops from one target evaluation per request to
   one per distinct target.  Without it, [compute] runs every time. *)
let target_cache ~optimize =
  let cache = ref [] in
  fun tau compute ->
    if not optimize then compute ()
    else
      match List.find_opt (fun (t, _) -> Shape.equal t tau) !cache with
      | Some (_, v) -> v
      | None ->
          let v = compute () in
          cache := (tau, v) :: !cache;
          v

(* ---------------- domain pool -------------------------------------- *)

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* A mutex-protected work queue; [pop] is the only cross-domain
   synchronization point on the hot path. *)
let make_queue items =
  let queue = ref items in
  let lock = Mutex.create () in
  fun () ->
    with_lock lock (fun () ->
        match !queue with
        | [] -> None
        | x :: rest ->
            queue := rest;
            Some x)

(* Run [worker 0 .. worker (n-1)] on [n] domains, where [n] is [jobs]
   capped at the hardware's recommended domain count — oversubscribing
   domains on fewer cores only buys stop-the-world GC barriers and OS
   timesharing (the Domain documentation advises against it).  Work
   distribution stays keyed to [jobs] (chunking happens before the
   pool), so statistics at a fixed -j do not depend on the machine;
   only which worker drains which chunk does, and the per-worker
   accumulators make that unobservable.  The index lets each worker own
   a private accumulator.  Each domain body is wrapped so that an
   exception cannot tear down the pool mid-join: every domain is always
   joined — leaving the shared queue in a consistent, released state —
   and only then is the first captured error re-raised on the calling
   domain. *)
let spawn_pool ~jobs worker =
  let n = min jobs (Domain.recommended_domain_count ()) in
  if n <= 1 then worker 0
  else
    let domains =
      List.init n (fun w ->
          Domain.spawn (fun () ->
              match worker w with () -> None | exception e -> Some e))
    in
    match List.filter_map Domain.join domains with
    | [] -> ()
    | e :: _ -> raise e

(* ---------------- per-worker accumulators --------------------------- *)

(* The unit of work: a slice of one request's candidate array, carrying
   its offset so per-candidate results land at the right index whichever
   worker runs it. *)
type chunk = { req : int; offset : int; nodes : Term.t array }

(* Everything a run accumulates, owned by exactly one domain at a time:
   each pool worker writes only its own record (no lock anywhere on the
   merge path), the calling domain folds the records together once
   after the pool is joined.  Result triples are a bitset over the
   frozen store's canonical SPO row ids — chunk output merges by
   bitwise OR, which is commutative, so the fragment is independent of
   scheduling by construction. *)
type acc = {
  bits : Bytes.t;
  counters : Counters.t;
  conf : int array;
  skip : int array;
  walls : float array;
  mutable checked : int;
  mutable failed : (chunk * exn) list;
}

let make_acc ~nrows ~nshapes =
  { bits = Bytes.make ((nrows + 7) / 8) '\000';
    counters = Counters.create ();
    conf = Array.make nshapes 0;
    skip = Array.make nshapes 0;
    walls = Array.make nshapes 0.0;
    checked = 0;
    failed = [] }

let or_bits ~into b =
  for k = 0 to Bytes.length into - 1 do
    Bytes.unsafe_set into k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get into k)
         lor Char.code (Bytes.unsafe_get b k)))
  done

let set_bit b r =
  let k = r lsr 3 in
  Bytes.unsafe_set b k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (r land 7))))

let get_bit b r = Char.code (Bytes.unsafe_get b (r lsr 3)) land (1 lsl (r land 7)) <> 0

(* Fold every worker's accumulator into the first one (the calling
   domain owns them all once the pool is joined). *)
let fold_accs accs =
  let final = accs.(0) in
  Array.iteri
    (fun w a ->
      if w > 0 then begin
        or_bits ~into:final.bits a.bits;
        Counters.add ~into:final.counters a.counters;
        Array.iteri (fun i c -> final.conf.(i) <- final.conf.(i) + c) a.conf;
        Array.iteri (fun i c -> final.skip.(i) <- final.skip.(i) + c) a.skip;
        Array.iteri (fun i t -> final.walls.(i) <- final.walls.(i) +. t) a.walls;
        final.checked <- final.checked + a.checked
      end)
    accs;
  final

(* Split request [i]'s candidate array into at most [jobs] balanced,
   non-empty chunks.  The split depends only on the array and [jobs],
   so execution statistics are deterministic for a fixed [-j]. *)
let chunks_of ~jobs i arr =
  let n = Array.length arr in
  if n = 0 then []
  else
    let k = min jobs n in
    List.init k (fun c ->
        let lo = c * n / k and hi = (c + 1) * n / k in
        { req = i; offset = lo; nodes = Array.sub arr lo (hi - lo) })

let now = Unix.gettimeofday

(* ---------------- fault isolation ---------------------------------- *)

(* Chunks are the engine's isolation unit: a chunk is evaluated into
   private accumulators that are merged only on success, so a chunk that
   raises — injected fault, exhausted budget, stack overflow on an
   adversarial schema — contributes nothing and poisons nothing.  The
   Sufficiency theorem makes the surviving output meaningful: every
   neighborhood a completed chunk emitted is independently valid.

   Degradation order on failure:
   1. the failing chunk is recorded and the pool keeps draining;
   2. after the pool is joined, each failed chunk is retried once,
      sequentially, on the calling domain (parallel → sequential
      degradation) — unless the run's budget is already spent;
   3. a chunk that fails its retry marks its shape as Failed in the
      statistics; with [`Skip] the run completes with the healthy
      shapes' fragments, with [`Fail] the original error is re-raised
      (after the pool is fully joined and consistent). *)

let probe_sites label =
  Runtime.Fault.probe "engine.chunk";
  Runtime.Fault.probe ("shape:" ^ label)

(* ---------------- the driver ---------------------------------------- *)

type outcome = {
  final : acc;  (* every worker's accumulator, folded *)
  failures : Runtime.Outcome.reason option array;
  retries : int;
}

(* The one driver behind [run] and [validate]: chunk each level's
   requests, drain the chunks through the domain pool into per-worker
   accumulators, retry failed chunks sequentially, and fold.  A job
   supplies only its per-chunk action — [make_worker ()] builds one
   worker's state (memo table, kernel context) and returns the check
   it applies to a chunk: given the chunk's fresh counters and row
   bitset it returns (conforming, skipped) — and its levels, which run
   in order, each one a full pool; [before_level] runs on the calling
   domain between them.  After a failure under [`Fail] no further
   level starts. *)
let drive ~jobs ~budget ~on_error ~nrows ~labels ~candidates ~levels
    ?(before_level = fun _ _ -> ()) make_worker =
  let nshapes = Array.length candidates in
  let accs = Array.init jobs (fun _ -> make_acc ~nrows ~nshapes) in
  let failures = Array.make nshapes None in
  let retries = ref 0 in
  let first_error = ref None in
  (* Raises on fault, budget exhaustion, or any crash inside the
     check; nothing reaches an accumulator until it returns. *)
  let eval_chunk check c =
    probe_sites labels.(c.req);
    Runtime.Budget.check budget;
    let t = now () in
    let counters = Counters.create () in
    let bits = Bytes.make ((nrows + 7) / 8) '\000' in
    let conforming, skipped = check counters bits c in
    bits, counters, conforming, skipped, now () -. t
  in
  (* Lock-free: [acc] is owned by the calling worker. *)
  let merge acc c (bits, counters, conforming, skipped, wall) =
    or_bits ~into:acc.bits bits;
    Counters.add ~into:acc.counters counters;
    acc.conf.(c.req) <- acc.conf.(c.req) + conforming;
    acc.skip.(c.req) <- acc.skip.(c.req) + skipped;
    acc.walls.(c.req) <- acc.walls.(c.req) +. wall;
    acc.checked <- acc.checked + Array.length c.nodes
  in
  let run_level shapes =
    before_level failures shapes;
    let pop =
      make_queue
        (List.concat_map (fun i -> chunks_of ~jobs i candidates.(i)) shapes)
    in
    spawn_pool ~jobs (fun w ->
        let acc = accs.(w) and check = make_worker () in
        let rec drain () =
          match pop () with
          | None -> ()
          | Some c ->
              (match eval_chunk check c with
              | result -> merge acc c result
              | exception e -> acc.failed <- (c, e) :: acc.failed);
              drain ()
        in
        drain ());
    (* Sequential degradation: retry each failed chunk once on this
       domain with fresh worker state, unless the budget is already
       gone — then skip straight to the failure verdict so a timed-out
       run still returns promptly.  The pool is joined, so this domain
       owns every accumulator; retried chunks merge into the first. *)
    let failed =
      List.concat_map (fun a -> List.rev a.failed) (Array.to_list accs)
    in
    Array.iter (fun a -> a.failed <- []) accs;
    List.iter
      (fun (c, e) ->
        let final_failure e =
          if !first_error = None then first_error := Some e;
          if failures.(c.req) = None then
            failures.(c.req) <- Some (Runtime.Outcome.reason_of_exn e)
        in
        match Runtime.Budget.expired budget with
        | Some _ -> final_failure e
        | None -> (
            incr retries;
            match eval_chunk (make_worker ()) c with
            | result -> merge accs.(0) c result
            | exception e' -> final_failure e'))
      failed
  in
  List.iter
    (fun shapes ->
      if !first_error = None || on_error = `Skip then run_level shapes)
    levels;
  (match on_error, !first_error with
  | `Fail, Some e -> raise e
  | _ -> ());
  { final = fold_accs accs; failures; retries = !retries }

let make_stats ~jobs ~t0 ~planning ~st ~triples_emitted ~requests_shared
    outcome shapes =
  let final = outcome.final in
  let totals = final.counters in
  { Stats.jobs;
    nodes_checked = final.checked;
    conforming = Array.fold_left ( + ) 0 final.conf;
    memo_lookups = totals.Counters.memo_lookups;
    memo_hits = totals.Counters.memo_hits;
    memo_misses = totals.Counters.memo_misses;
    path_evals = totals.Counters.path_evals;
    path_memo_lookups = totals.Counters.path_memo_lookups;
    path_memo_hits = totals.Counters.path_memo_hits;
    path_memo_misses = totals.Counters.path_memo_misses;
    checks_skipped = Array.fold_left ( + ) 0 final.skip;
    requests_shared;
    triples_emitted;
    retries = outcome.retries;
    interned_terms = Store.n_terms st;
    store_lookups = totals.Counters.store_lookups;
    batch_calls = totals.Counters.batch_calls;
    batch_sources = totals.Counters.batch_sources;
    rows_materialized = totals.Counters.rows_materialized;
    planning;
    wall = now () -. t0;
    shapes }

(* Freeze once up front: planning, checking and tracing all run against
   the interned store, and workers share it read-only. *)
let frozen g =
  let g = Graph.freeze g in
  match Graph.store g with
  | Some st -> g, st
  | None -> assert false (* [Graph.freeze] always builds a store *)

(* ---------------- batched priming ----------------------------------- *)

(* Collect, in deterministic order, the (path, focus-node set) pairs a
   set of shapes will evaluate: the focus paths of each shape paired
   with its candidate array, unioned across shapes per path.  Only
   paths the memo layer caches are kept. *)
let collect_prime_items pairs =
  let nodes_of : (Rdf.Path.t, Term.Set.t ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (paths, candidates) ->
      List.iter
        (fun e ->
          if Path_memo.worth_memoizing e then begin
            let add set =
              Array.fold_left (fun s v -> Term.Set.add v s) set candidates
            in
            match Hashtbl.find_opt nodes_of e with
            | Some set -> set := add !set
            | None ->
                Hashtbl.add nodes_of e (ref (add Term.Set.empty));
                order := e :: !order
          end)
        paths)
    pairs;
  List.rev_map
    (fun e ->
      let set = !(Hashtbl.find nodes_of e) in
      (e, Array.of_list (Term.Set.elements set)))
    !order

(* Fill [base] with one set-at-a-time kernel pass per (path, node set),
   parallelized over paths: per-worker kernel contexts whose memos are
   then exported into one shared read-only [Rdf.Path.Batch.base].
   Worker contexts adopt primed entries on first touch and replay their
   recorded charges, so budget and counter totals stay exactly what
   per-node evaluation of the same pairs would have charged.  On budget
   exhaustion the phase stops with a partial base and the chunks that
   needed the missing fuel fail at their own budget checks.  Stray
   nodes the dictionary has never seen are left to the checkers'
   per-node fallback. *)
let prime_row_base ~jobs ~budget ~into_counters base st items =
  match items with
  | [] -> ()
  | _ ->
      let pop = make_queue items in
      let worker_bases =
        Array.init jobs (fun _ -> Rdf.Path.Batch.base_create ())
      in
      let worker_counters = Array.init jobs (fun _ -> Counters.create ()) in
      let worker w =
        let wc = worker_counters.(w) in
        let step =
          if Runtime.Budget.is_unlimited budget then None
          else Some (Runtime.Budget.step_hook budget)
        in
        let ctx =
          Rdf.Path.Batch.create ?step
            ~lookup:(fun () ->
              wc.Counters.store_lookups <- wc.Counters.store_lookups + 1)
            ~lookup_n:(fun k ->
              wc.Counters.store_lookups <- wc.Counters.store_lookups + k)
            st
        in
        let rec drain () =
          match pop () with
          | None -> ()
          | Some (e, nodes) ->
              let sources =
                Array.to_list nodes |> List.filter_map (Store.id st)
              in
              if sources <> [] then begin
                let before = Rdf.Path.Batch.memo_size ctx in
                List.iter
                  (fun vid -> ignore (Rdf.Path.Batch.eval ctx e vid))
                  sources;
                wc.Counters.batch_calls <- wc.Counters.batch_calls + 1;
                wc.Counters.batch_sources <-
                  wc.Counters.batch_sources + List.length sources;
                wc.Counters.rows_materialized <-
                  wc.Counters.rows_materialized
                  + (Rdf.Path.Batch.memo_size ctx - before)
              end;
              drain ()
        in
        (try drain () with Runtime.Budget.Exhausted _ -> ());
        Rdf.Path.Batch.export ctx ~into:worker_bases.(w)
      in
      spawn_pool ~jobs worker;
      Array.iter
        (fun wb -> Rdf.Path.Batch.base_merge ~into:base wb)
        worker_bases;
      Array.iter
        (fun wc -> Counters.add ~into:into_counters wc)
        worker_counters

(* ---------------- fragment extraction ------------------------------ *)

let run ?(schema = Schema.empty) ?(jobs = 1)
    ?(budget = Runtime.Budget.unlimited) ?(on_error = `Fail)
    ?(optimize = false) ?restrict g requests =
  let jobs = max 1 jobs in
  let t0 = now () in
  let g, st = frozen g in
  let nrows = Store.n_triples st in
  let all_nodes = lazy (Graph.nodes g) in
  (* the stray-constant adjustment stays per request: it is cheap *)
  let by_target = target_cache ~optimize in
  (* [restrict] narrows the *candidate* set, not the graph: each kept
     candidate is still checked against the whole graph, so a shard
     worker's answer is exact over the nodes it owns and the union over
     a partition of the node space is exactly the unrestricted run. *)
  let restrict_list l =
    match restrict with None -> l | Some keep -> List.filter keep l
  in
  let plans =
    List.map
      (fun r ->
        let candidates, pruned = plan ~schema ~all_nodes ~by_target g r in
        ( r,
          Array.of_list (restrict_list (Term.Set.elements candidates)),
          pruned ))
      requests
  in
  let shapes = Array.of_list (List.map (fun (r, _, _) -> r.shape) plans) in
  let labels = Array.of_list (List.map (fun (r, _, _) -> r.label) plans) in
  let candidates = Array.of_list (List.map (fun (_, c, _) -> c) plans) in
  let nshapes = Array.length shapes in
  (* Request sharing: two requests whose shapes are structurally equal
     after reference resolution and NNF drive the checker identically —
     same conforming nodes, same neighborhoods — so the later one rides
     on the earlier for free.  Resolution + NNF only (no containment
     canonicalization): canonical rewrites preserve conformance but not
     neighborhoods, so they must not merge fragment requests. *)
  let shared_of = Array.make nshapes None in
  if optimize then begin
    let keys =
      Array.map (fun s -> Analysis.Containment.resolved_nnf schema s) shapes
    in
    for i = 0 to nshapes - 1 do
      let rec find j =
        if j >= i then None
        else if shared_of.(j) = None && Shape.equal keys.(j) keys.(i) then
          Some j
        else find (j + 1)
      in
      shared_of.(i) <- find 0
    done
  end;
  let evaluated =
    List.filter (fun i -> shared_of.(i) = None) (List.init nshapes Fun.id)
  in
  let planning = now () -. t0 in
  (* Evaluate each distinct (path, candidate set) of the planned shapes
     once, set-at-a-time, into the kernel's id-space base shared by
     every worker's context. *)
  let prime_counters = Counters.create () in
  let row_base = Rdf.Path.Batch.base_create () in
  prime_row_base ~jobs ~budget ~into_counters:prime_counters row_base st
    (collect_prime_items
       (List.map
          (fun i -> (Conformance.focus_paths schema shapes.(i), candidates.(i)))
          evaluated));
  (* One worker's state: under the optimizer a [Path_memo] table shared
     across every chunk — and so across shapes — the worker drains,
     never across domains; and one id-space kernel context per worker
     whose lookup hook charges whichever chunk's counters are current.
     Kernel memo hits replay the recorded charges, so per-chunk
     statistics are identical whether an entry was computed in this
     chunk, an earlier one, or the priming phase.  Row neighborhoods OR
     straight into the chunk bitset — no [Graph.t] is materialized on
     the hot path. *)
  let make_worker () =
    let path_memo = if optimize then Some (Path_memo.create ()) else None in
    let cur = ref (Counters.create ()) in
    let env =
      Neighborhood.row_env ~budget
        ~lookup:(fun () ->
          !cur.Counters.store_lookups <- !cur.Counters.store_lookups + 1)
        ~lookup_n:(fun k ->
          !cur.Counters.store_lookups <- !cur.Counters.store_lookups + k)
        ~base:row_base g
    in
    fun counters bits c ->
      cur := counters;
      let check =
        Neighborhood.row_checker ~counters ~budget ~schema ?path_memo ~env g
          shapes.(c.req)
      in
      let conforming = ref 0 in
      Array.iter
        (fun v ->
          let conforms, rows = check v in
          if conforms then begin
            incr conforming;
            Array.iter (fun r -> set_bit bits r) rows
          end)
        c.nodes;
      !conforming, 0
  in
  let outcome =
    drive ~jobs ~budget ~on_error ~nrows ~labels ~candidates
      ~levels:[ evaluated ] make_worker
  in
  Counters.add ~into:outcome.final.counters prime_counters;
  (* The fragment is decoded from the merged bitset in ascending row
     order — canonical SPO order, independent of scheduling. *)
  let emitted = ref 0 in
  let fragment = ref Graph.empty in
  for r = 0 to nrows - 1 do
    if get_bit outcome.final.bits r then begin
      incr emitted;
      fragment := Graph.add_triple (Store.row_triple st r) !fragment
    end
  done;
  let shape_stats =
    List.mapi
      (fun i (r, candidates, pruned) ->
        match shared_of.(i) with
        | Some rep ->
            (* not evaluated at all — its work rode on [rep] *)
            { Stats.label = r.label;
              pruned;
              candidates = 0;
              conforming = 0;
              wall = 0.0;
              failed = None;
              skipped = 0;
              shared_with = Some labels.(rep) }
        | None ->
            { Stats.label = r.label;
              pruned;
              candidates = Array.length candidates;
              conforming = outcome.final.conf.(i);
              wall = outcome.final.walls.(i);
              failed = outcome.failures.(i);
              skipped = 0;
              shared_with = None })
      plans
  in
  let requests_shared = nshapes - List.length evaluated in
  ( !fragment,
    make_stats ~jobs ~t0 ~planning ~st ~triples_emitted:!emitted
      ~requests_shared outcome shape_stats )

let fragment ?schema ?jobs g shapes =
  fst (run ?schema ?jobs g (List.map request shapes))

let fragment_schema ?jobs schema g =
  fst (run ~schema ?jobs g (requests_of_schema schema))

(* ---------------- validation --------------------------------------- *)

let validate ?(jobs = 1) ?(budget = Runtime.Budget.unlimited)
    ?(on_error = `Fail) ?(optimize = false) ?restrict schema g =
  let jobs = max 1 jobs in
  let t0 = now () in
  let g, st = frozen g in
  (* The containment plan is static — graph-independent — and its cost
     is accounted as planning time. *)
  let plan_opt = if optimize then Some (Plan.make schema) else None in
  (* Under the optimizer, defs with equal target expressions share one
     candidate array, and downstream the physical sharing lets the skip
     rule compare verdicts by index instead of by node lookup. *)
  let by_target = target_cache ~optimize in
  let targets_of (def : Schema.def) =
    by_target def.target (fun () ->
        (* same contract as [run]: owned targets only, checked against
           the whole graph — the restriction is constant for the run, so
           the dedup cache stays valid *)
        let nodes = Term.Set.elements (Validate.target_nodes schema g def) in
        let nodes =
          match restrict with
          | None -> nodes
          | Some keep -> List.filter keep nodes
        in
        Array.of_list nodes)
  in
  let defs = Array.of_list (Schema.defs schema) in
  let candidates = Array.map targets_of defs in
  let planning = now () -. t0 in
  let ndefs = Array.length defs in
  let verdicts =
    Array.map (fun targets -> Array.make (Array.length targets) false)
      candidates
  in
  (* Execution levels.  Without the optimizer everything is one level.
     With it, defs run in the plan's layers so that when a proven
     [A ⊑ B] schedules [A] first, [B]'s checks are skipped on nodes
     already proven [A]-conformant. *)
  let all = List.init ndefs Fun.id in
  let levels =
    match plan_opt with
    | None -> [ all ]
    | Some p ->
        List.init (Plan.n_levels p) (fun l ->
            List.filter (fun i -> p.Plan.levels.(i) = l) all)
  in
  (* Skip sources for each def, rebuilt before its level runs: the
     verdict arrays of proven-contained predecessors that share this
     def's (deduped) target array.  Sharing makes the per-candidate
     test a single array load at the candidate's own index — no set is
     ever materialized.  A predecessor with a {e different} target
     array is ignored: it could only skip nodes in the intersection of
     the two target sets (typically empty — think equal constraints
     under disjoint target classes), while serving it would mean
     hashing whole conforming sets; the bookkeeping costs more than the
     checks it saves. *)
  let skip_idx : bool array list array = Array.make ndefs [] in
  let before_level failures level_defs =
    match plan_opt with
    | None -> ()
    | Some p ->
        List.iter
          (fun j ->
            skip_idx.(j) <-
              List.filter_map
                (fun i ->
                  (* a failed predecessor's verdicts are incomplete *)
                  if candidates.(i) == candidates.(j) && failures.(i) = None
                  then Some verdicts.(i)
                  else None)
                p.Plan.skip_preds.(j))
          level_defs
  in
  (* Under the optimizer workers share path evaluations through a
     [Path_memo] table; at [-j 1] everything runs on this domain, so one
     table serves the whole run across levels. *)
  let solo_memo =
    if optimize && jobs <= 1 then Some (Path_memo.create ()) else None
  in
  (* Verdict writes go to disjoint slices of [verdicts], so they need no
     lock; a failed chunk's partial writes are harmless because a failed
     definition is dropped from the report wholesale. *)
  let make_worker () =
    let path_memo =
      match solo_memo with
      | Some _ -> solo_memo
      | None -> if optimize then Some (Path_memo.create ()) else None
    in
    fun counters _bits c ->
      let check =
        Conformance.checker ~counters ~budget ?path_memo schema g
          defs.(c.req).Schema.shape
      in
      let skips = skip_idx.(c.req) in
      let conforming = ref 0 and skipped = ref 0 in
      Array.iteri
        (fun j v ->
          let k = c.offset + j in
          (* a node proven conformant to a contained shape is conformant *)
          let ok =
            if List.exists (fun va -> va.(k)) skips then begin
              incr skipped;
              true
            end
            else check v
          in
          if ok then incr conforming;
          verdicts.(c.req).(k) <- ok)
        c.nodes;
      !conforming, !skipped
  in
  let labels = Array.map (fun (d : Schema.def) -> Term.to_string d.name) defs in
  let outcome =
    drive ~jobs ~budget ~on_error ~nrows:0 ~labels ~candidates ~levels
      ~before_level make_worker
  in
  (* Assemble results exactly as the sequential [Validate.validate] does:
     per definition, a [Term.Set.fold] pushing to the front — i.e. each
     definition's results in descending node order.  Definitions whose
     evaluation failed are excluded wholesale: the report covers exactly
     the definitions that were fully checked. *)
  let results =
    List.concat
      (List.init ndefs (fun i ->
           if outcome.failures.(i) <> None then []
           else begin
             let acc = ref [] in
             Array.iteri
               (fun j focus ->
                 acc :=
                   { Validate.focus;
                     shape_name = defs.(i).name;
                     conforms = verdicts.(i).(j) }
                   :: !acc)
               candidates.(i);
             !acc
           end))
  in
  let report =
    { Validate.conforms =
        List.for_all (fun (r : Validate.result) -> r.conforms) results;
      results }
  in
  let shape_stats =
    List.init ndefs (fun i ->
        { Stats.label = labels.(i);
          pruned = true;
          candidates = Array.length candidates.(i);
          conforming = outcome.final.conf.(i);
          wall = outcome.final.walls.(i);
          failed = outcome.failures.(i);
          skipped = outcome.final.skip.(i);
          shared_with = None })
  in
  ( report,
    make_stats ~jobs ~t0 ~planning ~st ~triples_emitted:0 ~requests_shared:0
      outcome shape_stats )
