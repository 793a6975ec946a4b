(** Expected convergence times under the uniform random daemon.

    Treat the program as an absorbing Markov chain: in every non-target
    state the daemon picks one of the enabled actions uniformly at random;
    target states absorb. The expected number of steps to absorption
    satisfies

    [E(s) = 0] if [target s], else [E(s) = 1 + avg over successors E(s')],

    which value iteration solves to any accuracy. This gives an exact
    analytical counterpart to the simulation estimates — experiment E12
    cross-validates the two.

    Over the relation's [n] states it keeps two one-byte flags per state
    (target, and can reach the target), a predecessor list per state and
    the value array. *)

type failure =
  | Unreachable of Guarded.State.t
      (** This state cannot reach the target at all. *)
  | Not_converged of float
      (** Value iteration still moving by this delta after [max_iters]. *)

val steps :
  ?epsilon:float ->
  ?max_iters:int ->
  Tsys.t ->
  target:(Guarded.State.t -> bool) ->
  (float array, failure) result
(** Expected steps per state id. [epsilon] defaults to [1e-9] (sup-norm
    stopping threshold), [max_iters] to [1_000_000]. *)

val mean_from :
  ?epsilon:float ->
  ?max_iters:int ->
  Tsys.t ->
  from:(Guarded.State.t -> bool) ->
  target:(Guarded.State.t -> bool) ->
  (float, failure) result
(** Expected steps averaged uniformly over the states satisfying [from] —
    the analytic analogue of a scramble-then-recover experiment. *)
