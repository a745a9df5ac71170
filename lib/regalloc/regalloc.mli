(** Graph-coloring global register allocation in the style of Chaitin and
    Briggs et al. (paper 2.2).

    Nodes are pseudo-registers; edges are interferences computed from
    liveness over the instruction order presented by the strategy.
    Register pairs (%equiv) interfere through byte overlap, and precolored
    physical registers (CWVM argument/result registers, call clobbers)
    constrain the colors a pseudo-register may take. Coloring is
    optimistic; uncolored nodes spill to frame slots, spill code is
    inserted, and allocation repeats until it converges.

    Simplify is a worklist. Each node keeps a count of the colors its
    precolored conflicts and its not-yet-removed neighbours can block
    (a neighbour of a wider class blocks several). The count only falls
    as neighbours are removed, so a node stays colorable once its count
    is below the registers its class may take. Each step removes the
    colorable node of lowest pseudo-register id; when none is colorable
    it removes the node of least [cost / (degree + 1)] (the first such in
    id order, from a list sorted once, stably). Select then colors in
    reverse removal order, preferring caller-save registers. *)

type stats = {
  rounds : int;  (** coloring rounds (1 = no spilling needed) *)
  spilled : int;  (** pseudo-registers sent to memory *)
}

val allocate : ?forbid_global_pregs:bool -> ?max_local:int -> Mir.func -> stats
(** Allocate and rewrite the function in place: pseudo-registers become
    physical registers, [Opart]s resolve to subregisters, identity moves
    disappear and [Mir.f_saved] receives the callee-save registers used.
    [Mir.f_locations] receives the complete pseudo-to-location map for
    this run — colored pseudos (spill temporaries included) map to
    {!Mir.Lreg}, spilled pseudos to their {!Mir.Lslot} — which is what
    the translation validator ({!Transval}) audits.

    [forbid_global_pregs] spills every cross-block pseudo-register up
    front — the local-only baseline strategy ("Naive", standing in for the
    paper's [cc -O1] comparison point).

    [max_local] caps the number of allocable registers per class (used by
    RASE to enforce per-block schedule/register trade-offs). *)
