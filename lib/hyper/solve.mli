(** Least-coefficient time solver and unimodular completion (paper §4,
    after Lamport). *)

exception No_schedule of string
(** No linear schedule exists (e.g. both [d] and [-d] occur), or the time
    vector's gcd exceeds 1 so no unimodular completion exists. *)

val solve : ?limit:int -> int array list -> int array
(** The least non-negative integer vector [a] with [a . d > 0] for every
    difference vector: smallest coefficient sum, ties broken
    lexicographically — [(2, 1, 1)] for the paper's example.  [limit]
    bounds the searched coefficient sum (a generous default is derived
    from the vectors).
    @raise No_schedule when the search space is exhausted. *)

val violations : int array -> int array list -> int array list
(** The difference vectors a candidate fails to order strictly
    ([a . d <= 0]); empty exactly when it satisfies every inequality.
    Used by the legality verifier to report Lamport inequalities
    edge-by-edge. *)

val complete : int array -> Imatrix.t
(** A unimodular matrix whose first row is the given time vector.  Unit
    rows are preferred (reproducing the paper's [I' = K, J' = I]); an
    extended-gcd construction handles rows without a +-1 coefficient.
    @raise No_schedule when the entries' gcd exceeds 1. *)
