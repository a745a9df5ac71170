(** Ring-buffer resource scoreboard (paper 4.3).

    Tracks which machine resources are occupied on each cycle of a sliding
    window. The window length is the model's longest resource vector — an
    instruction issued on cycle [c] can occupy resources no later than
    [c + span - 1], so once every consumer probes at monotonically
    non-decreasing cycles (the scheduler clock, the simulator clock, the
    hazard replay's strictly increasing placements), [span] slots suffice
    and memory stays bounded for arbitrarily long runs.

    When the model has at most [Sys.int_size] resources (the built-in
    targets have 10 to 18), each ring slot is a single int and a probe or
    reservation is one [land] or [lor] per cycle of the resource vector;
    wider models keep one {!Bitset.t} per slot.

    This replaces three prior copies of the busy-table logic: the list
    scheduler's grow-by-doubling array, the simulator's per-cycle
    hashtable (which leaked future-cycle entries), and Mircheck's replay
    composite. *)

type stats = {
  mutable probes : int;  (** [conflict] queries *)
  mutable conflicts : int;  (** queries that found a resource busy *)
  mutable reserves : int;  (** successful reservations *)
}

val make_stats : unit -> stats

type t

val create : ?stats:stats -> Model.t -> t
(** An empty scoreboard over the model's resources; when [stats] is given,
    every probe and reservation is counted into it. *)

val window : t -> int
(** The ring size: the model's maximum resource-vector span (at least 1). *)

val reset : t -> unit
(** Clear all occupancy and rewind the window base to cycle 0. *)

val conflict : t -> cycle:int -> Model.instr -> bool
(** [conflict t ~cycle op]: would issuing [op] (an instruction of the
    model the scoreboard was created for) on [cycle] collide with a prior
    reservation of its resource vector? Advances the window to [cycle].
    Raises [Invalid_argument] if [cycle] is behind the window base —
    probes must be monotone. *)

val reserve : t -> cycle:int -> Model.instr -> unit
(** Occupy [op]'s resources starting at [cycle]. Advances the window;
    the same monotonicity contract as {!conflict} applies. *)
