(** A reusable dataflow framework over the MIR control-flow graph.

    A client packages its lattice as a {!DOMAIN} — a fact type with join,
    equality, per-block initial facts and a per-block transfer function —
    and {!Solve} produces the classic worklist fixpoint over a function's
    blocks, in either direction. Facts attach to block edges of the flow:
    for a {e forward} problem the incoming fact of a block is the join of
    its initial fact and its predecessors' outgoing facts; for a
    {e backward} problem incoming means {e at block exit} (joined from
    successors) and the transfer walks the block in reverse.

    A label is one node of the flow: where blocks share a label, the
    last of them carries its transfer and each contributes its
    successors, and results are found by label.

    Bottom is represented outside the domain: a block with no initial
    fact that no fact has reached yet simply has no entry in the result,
    so clients need no artificial bottom element and unreachable blocks
    are distinguishable from blocks with an empty fact. A client whose
    lattice has a least element gives it to every block as its initial
    fact, and every block then gets the least fixpoint. Termination
    requires the usual: [join] computes a least upper bound in a lattice
    of finite height and [transfer] is monotone. *)

type stats = {
  mutable solves : int;  (** fixpoints computed *)
  mutable iterations : int;  (** block transfer applications *)
  mutable facts : int;  (** total fact size at the fixpoint ({!DOMAIN.nfacts}
                            summed over reached blocks) *)
}

val fresh_stats : unit -> stats

type direction = Forward | Backward

module type DOMAIN = sig
  type fact

  val direction : direction

  val init : Mir.func -> Mir.block -> fact option
  (** The fact joined into the block's incoming fact before any flow
      from its sources: the function-entry fact on the entry block of a
      classic forward problem, [None] elsewhere. *)

  val equal : fact -> fact -> bool

  val join : fact -> fact -> fact
  (** Least upper bound of two incoming facts. Must be commutative and
      associative up to [equal], and must not mutate its arguments: the
      solver keeps every fact it is given. *)

  val transfer : Mir.func -> Mir.block -> fact -> fact
  (** The block's effect on a fact, walking its instructions in flow
      order (reverse instruction order for a backward problem). Must be
      monotone, and must not mutate its argument. *)

  val nfacts : fact -> int
  (** Size measure for profiling ({!stats.facts}). *)
end

module Solve (D : DOMAIN) : sig
  type result

  val solve : ?stats:stats -> Mir.func -> result
  (** Run the worklist to fixpoint over the function's blocks.
      [stats], when given, accumulates solver counters. *)

  val flow_in : result -> string -> D.fact option
  (** Fact flowing {e into} the block's transfer — at block entry for a
      forward problem, at block exit for a backward one. [None] when no
      fact reached the block (unreachable along the flow). *)

  val flow_out : result -> string -> D.fact option
  (** The transfer's output — at block exit (forward) or entry
      (backward). *)
end
