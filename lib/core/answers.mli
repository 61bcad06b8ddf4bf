(** Non-Boolean consistent query answering: certain answer {e tuples}.

    The paper treats Boolean queries; a practical system must return answer
    tuples. For a query [q(x̄) = A ∧ B] with free variables [x̄], the
    {e certain answers} over a database [D] are the tuples [ā] such that
    [q(ā)] holds in {e every} repair of [D] (and the {e possible answers}
    those holding in at least one repair).

    Both are computed by reduction to the Boolean case: candidate tuples are
    the projections of the witnessing assignments of [q] on [D]; each
    candidate is substituted into the query and the grounded Boolean query is
    classified and solved. Classification depends only on which candidate
    values coincide, so verdicts are cached per coincidence pattern — the
    dichotomy is decided once per pattern, not once per tuple. *)

type t = {
  tuple : Relational.Value.t list;  (** Values of the free variables, in order. *)
  certain : bool;  (** Holds in every repair. *)
}

(** [candidates ~free q db] lists the projections on [free] of all
    assignments witnessing [q] in [db] whose fact pair fits inside one
    repair. Certain and possible answers are always among them.
    @raise Invalid_argument if [free] is empty, repeats a variable or is not
    contained in [vars(q)]. *)
val candidates :
  free:Qlang.Term.var list ->
  Qlang.Query.t ->
  Relational.Database.t ->
  Relational.Value.t list list

(** [ground ~free q tuple] substitutes the tuple for the free variables,
    yielding the Boolean query [q(ā)]. *)
val ground :
  free:Qlang.Term.var list ->
  Qlang.Query.t ->
  Relational.Value.t list ->
  Qlang.Query.t

(** [evaluate ?k ~free q db] classifies and solves [q(ā)] for every
    candidate [ā], returning all candidates with their certainty verdict
    (tuples in lexicographic order). Each grounding is decided by
    {!Solver.solve}; [k] as there. *)
val evaluate :
  ?k:int ->
  free:Qlang.Term.var list ->
  Qlang.Query.t ->
  Relational.Database.t ->
  t list

(** [certain_answers ?k ~free q db] keeps only the certain tuples. *)
val certain_answers :
  ?k:int ->
  free:Qlang.Term.var list ->
  Qlang.Query.t ->
  Relational.Database.t ->
  Relational.Value.t list list

(** [possible_answers ~free q db] lists the tuples holding in at least one
    repair (exactly the candidates: each candidate's witnessing pair embeds
    in a repair). *)
val possible_answers :
  free:Qlang.Term.var list ->
  Qlang.Query.t ->
  Relational.Database.t ->
  Relational.Value.t list list
