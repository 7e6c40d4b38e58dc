(** Executable audit of the Theorem 2 potential function.

    Evaluates the paper's potential [Phi] along an actual OA(m) run against
    an actual optimal schedule, checking the two properties the proof
    rests on: [Phi] does not increase at arrivals, and the drift inequality
    [sum P(s_OA) - a^a sum P(s_OPT) + dPhi/dt <= 0] holds on every
    constant piece.  Both schedules are piecewise constant, so the
    finite-difference derivative is exact. *)

type piece = {
  t0 : float;
  t1 : float;
  oa_power : float;
  opt_power : float;
  phi0 : float;
  phi1 : float;
  lhs : float;  (** [oa_power - a^a opt_power + dPhi/dt]; non-positive when
                    property (b) holds *)
}

type arrival_jump = {
  time : float;
  before : float;
  after : float;
}

type audit = {
  alpha : float;
  pieces : piece list;
  jumps : arrival_jump list;
  max_piece_violation : float;  (** scaled; [<= tol] when (b) holds *)
  max_jump_violation : float;   (** scaled; [<= tol] when (a) holds *)
  energy_oa : float;
  energy_opt : float;
}

val audit : alpha:float -> Ss_model.Job.instance -> audit
(** Audits the {!Oa.run_detailed} run and its plan history against
    {!Ss_core.Offline.optimal_schedule}.
    @raise Invalid_argument when [alpha <= 1]. *)

val holds : tol:float -> audit -> bool
(** Both scaled violations are at most [tol]. *)
