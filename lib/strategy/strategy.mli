(** Code generation strategies (paper 2): the part of the code generator
    that directs the invocation of, and communication between, instruction
    scheduling and global register allocation. Strategies plug into the
    target- and strategy-independent machinery (selector, allocator, code
    DAG builder, scheduling support) without changing it.

    Each strategy is a declarative {!Pass} pipeline — a phase ordering of
    one shared allocate/schedule/estimate vocabulary (see {!pipeline}),
    with MIR verification inserted uniformly after every pass that
    declares a {!Diag.phase} post-condition:

    - {b Naive} — local-only baseline: no global register allocation, no
      scheduling. Stands in for the paper's [cc -O1] comparison point.
    - {b Postpass} (Gibbons & Muchnick / Hennessy & Gross) — global
      register allocation first, then list scheduling of the final code.
    - {b IPS}, Integrated Prepass Scheduling (Goodman & Hsu) — schedule
      with a limit on local register use, allocate globally, schedule
      again.
    - {b RASE}, Register Allocation with Schedule Estimates (Bradlee,
      Eggers & Henry) — run the scheduler repeatedly to gather schedule
      cost estimates under varying register budgets, use the estimates to
      choose the register/schedule trade-off, then allocate and do final
      scheduling. *)

type name = Naive | Postpass | Ips | Rase

val all : name list

val to_string : name -> string

val of_string : string -> name option

val pipeline : ?disambig:bool -> name -> Pass.t list
(** The strategy's phase ordering, in execution order. All
    strategy-specific allocation/scheduling behaviour lives in these pass
    definitions; {!apply} contains none. With [disambig] (the default)
    every {e post-allocation} scheduling or estimate pass computes a
    static memory-disambiguation oracle from its input ({!Disambig}) and
    hands it to the DAG builder, so provably independent memory accesses
    carry no Mem edge. Pre-allocation passes (the IPS and RASE
    prepasses, and the RASE budget sweep that models them) deliberately
    stay conservative: hoisting loads across stores before the
    allocator runs stretches live ranges, and on the Livermore corpus
    costs more in spills than the reordering freedom buys. Pass names
    are identical either way — the flag is part of the cache key
    ({!pipeline_key}), not the pass list. *)

val max_budget : Model.t -> int
(** The largest register budget the RASE sweep tries: the allocable
    registers of the model's largest class. *)

val rase_costs : ?sb_stats:Scoreboard.stats -> Mir.func -> int array * int
(** The sweep of the ["rase-sweep"] pass: the total schedule length of
    the function's blocks under each register budget [1..max_budget]
    (element [n - 1] is budget [n]; {!Listsched.Fixed} limits, no delay
    filling, no memory disambiguation), and the number of block schedules
    run to get them. Each block's DAG is built once ({!Listsched.prepare})
    and rescheduled per budget up to the first budget under which the
    limit never binds ([Listsched.result.pressure_bound]); that length
    then stands for every larger budget too. The pass keeps the first
    budget of least total. The function is not changed. *)

type on_error = [ `Abort | `Degrade | `Skip ]
(** What the driver does when a pass faults — raises, exceeds the pass
    deadline, or trips an injected fault ({!Finject}) — while compiling
    one function:

    - [`Abort] (the default): the fault propagates exactly as it would
      without the robust layer — same exception, same backtrace. With no
      deadline and no injection plan this path installs {e no} guard at
      all, so it is bit-identical to the pre-robust compiler.
    - [`Degrade]: recompile {e only the faulted function} from its
      pristine post-selection state on the next rung of the fallback
      ladder — Rase -> Ips -> Postpass -> Naive (see {!Degrade}) — until
      a rung succeeds or the ladder is exhausted (then as [`Skip]).
    - [`Skip]: give the function up at its pristine state and record it
      as skipped; the rest of the program compiles normally. *)

val on_error_name : on_error -> string
(** ["abort"], ["degrade"] or ["skip"] — the [--on-error=] spelling. *)

type config = {
  check : bool;
      (** Lint the description ({!Marilint}, through {!compile}) and
          re-verify every function with {!Mircheck.check_func} at each
          phase point — post-select, then after every pass declaring a
          post-condition (post-regalloc, post-sched, final). A phase
          whose invariants do not hold raises {!Diag.Check_error};
          warnings land in [report.check_diags]. Default [true]
          ([marionc --no-check]). *)
  check_options : Mircheck.options;
      (** Tunes the verifier, e.g. the opt-in hazard replay behind
          [marionc --verify-mir]. Default {!Mircheck.default_options}. *)
  validate : bool;
      (** Bracket every pass claiming a {!Transval.validated_phase}
          post-condition by translation validation: the function is
          captured before the pass and the (input, output) pair is
          checked for semantic preservation — Schedval after scheduling
          passes, Regval after allocation passes (codes V001–V029).
          Validator errors raise {!Diag.Check_error} like verifier
          errors. Independent of [check]. Default [true]
          ([marionc --no-validate]). *)
  disambig : bool;
      (** Run static memory disambiguation before every post-allocation
          scheduling pass and prune provably independent Mem edges from
          the dependence DAGs (see {!pipeline}); the translation
          validators rebuild their DAGs through the same oracle. Analysis
          time and pruning counters land in the profile
          ([Profile.p_an_time] etc.). Default [true]
          ([marionc --no-disambig]). *)
  jobs : int;
      (** Fan the per-function compile units out over an OCaml domain
          pool of this size. The observable outputs — rewritten program,
          spills, estimates, schedule passes, diagnostics — are
          bit-identical for every [jobs]: units share no mutable state,
          results merge in program order, and errors re-raise for the
          earliest function that would have failed sequentially. Only the
          [profile] timings vary. Default [1] ([marionc -j]). *)
  on_error : on_error;
      (** How a faulted function recovers; see {!type-on_error}. Default
          [`Abort] ([marionc --on-error=]). *)
  pass_timeout : float option;
      (** Per-pass wall-clock deadline in milliseconds, checked {e after}
          the pass returns (domains cannot be preempted); exceeding it is
          a fault. Default [None] ([marionc --pass-timeout]). *)
  finject : Finject.plan;
      (** Deterministic fault-injection plan fired at pass boundaries.
          Default {!Finject.empty} ([marionc --finject],
          [MARION_FINJECT]). *)
}
(** Everything that configures a compile. [on_error], [pass_timeout]
    and [finject] activate the fault-isolation layer: every pass body
    then runs under a {!Guard} that traps exceptions (backtrace
    captured), checks the deadline and fires the injection plan. With
    their defaults — [`Abort], no deadline, empty plan — no guard is
    installed and behaviour is bit- and exception-identical to a
    compiler without that layer. *)

val default_config : config
(** Every field at its documented default. Override with
    [{ Strategy.default_config with validate = false }]. *)

val pipeline_key : config -> name -> Ckey.t
(** The pipeline identity a compile of [name] under [config] is cached
    under ({!Ckey.of_pipeline}): strategy, ordered pass names, and every
    field of [config] that can change the generated code or a report —
    [check] and all of [check_options], [validate] and [disambig]. The
    other fields cannot change a stored result: outputs are identical at
    every [jobs], a degraded result is stored under its own rung's key,
    and functions an injection plan may target bypass the cache. The
    definition names every field, so a new one does not compile until it
    is placed on one side or the other. *)

type report = {
  strategy : name;
  spilled : int;  (** pseudo-registers spilled across all functions *)
  block_estimates : (string, int) Hashtbl.t;
      (** scheduler cost estimate per block label — the estimated-cycles
          side of Table 4 *)
  schedule_passes : int;
      (** how many block schedules were computed (for RASE, the sweep
          schedules actually run: {!rase_costs}) *)
  check_diags : Diag.t list;
      (** warnings from the phase verifier (and, through {!compile}, the
          description linter), grouped per function in program order;
          empty when checking is off. Errors never land here — they raise
          {!Diag.Check_error}. *)
  validate_diags : Diag.t list;
      (** non-error findings from the translation validators (Transval);
          empty when validation is off. Validator errors never land here —
          they raise {!Diag.Check_error}, exactly like verifier errors. *)
  faults : Degrade.event list;
      (** one event per function that faulted under a non-[`Abort]
          policy, in program order: the faults trapped (exception,
          deadline, injection — {!Fault}) and how the function was
          resolved (degraded to a lower rung, or skipped). Empty under
          [`Abort] and on every fault-free compile, so existing callers
          see no change. *)
  profile : Profile.t;
      (** per-pass wall times and code-shape statistics for this compile
          ([marionc --time-passes], bench "parallel"). Timing values are
          the only non-deterministic part of a report; fault and
          degradation counts land in [p_faults]/[p_degraded]/[p_skipped].
          Checking and validation time are the ["lint"]/["verify:*"] and
          ["validate:*"] entries ({!Profile.prefix_wall}). *)
}

val apply : ?config:config -> ?profile:Profile.t -> name -> Mir.prog -> report
(** Run the strategy's pipeline over every function of a selected
    program: scheduling and register allocation per the strategy, then
    frame layout, each function verified, validated and guarded as
    [config] says (default {!default_config}). The program is rewritten
    in place and is ready for the simulator or the assembly printer.
    [profile] accumulates into a caller-owned profile instead of a fresh
    one; the caller then owns its wall/cpu totals. *)

val compile :
  ?config:config -> ?cache:Cache.t -> Model.t -> name -> Ir.prog ->
  Mir.prog * report
(** The incremental whole-program driver: lint (when [check]), glue the
    IL to the model sequentially, then fan one unit per function out over
    the domain pool — each unit selects and runs the strategy pipeline
    (or replays a cache hit) — and merge in program order. When [check]
    is set the description linter runs over the model first — memoized by
    the model's content digest behind a mutex, so many (possibly
    concurrent) compiles against one description lint it exactly once,
    even when the description is re-parsed into a structurally equal
    model each time — and a compile against an incoherent description
    fails before selection.

    [cache] supplies a content-addressed compilation cache (see
    {!Cache}). Each function's key combines the digest of its post-glue
    IL tree ({!Ckey.of_ir_func}), the model digest ({!Ckey.of_model}),
    and the pipeline identity ({!pipeline_key}) — so any edit to the
    source, the description, the strategy, or a report-changing config
    field misses and recompiles. The cache is a resource, not a setting:
    it is never part of the key. A hit returns the cached {!Mir.func}
    and replays the deterministic report parts (spills, estimates,
    schedule passes, diagnostics, DAG sizes) bit-identically; its
    profile shows one synthetic ["cached"] entry in place of the pass
    times, and the profile's cache counters ([Profile.p_cache_hits]
    etc.) are filled in.

    Errors re-raise for the earliest function that would have failed; a
    function whose selection fails no longer preempts an earlier
    function's pipeline error, since selection now runs inside the
    per-function unit.

    The robust fields of [config] interact with the cache in two ways.
    First, cache {e lookups are bypassed} for any function the
    injection plan may target ({!Finject.may_target}) — a warm hit
    would replay a result without crossing the pass boundaries faults
    are planted at, silently neutralising the injection; bypassed
    functions count as neither hit nor miss. Second, a degraded result
    is {e stored under the fallback rung's pipeline identity}, never the
    original strategy's key, and a skipped function is never stored — so
    the cache can never replay a degraded artifact as a clean compile of
    the requested strategy, while a later compile that genuinely
    requests the fallback strategy hits legitimately. *)
