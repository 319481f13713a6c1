(** Double-ended queue: a growable ring buffer, O(1) at both ends.

    The application-model driver keeps each CPU's held objects of one
    cache here, so a transaction can release oldest-first (typical kernel
    lifetimes) or newest-first (scratch buffers). Pushes and the [_exn]
    pops allocate nothing once the ring has grown to its working size. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit

val pop_front_exn : 'a t -> 'a
val pop_back_exn : 'a t -> 'a
(** Raise [Invalid_argument] when empty; check {!length} first on hot
    paths. *)

val pop_front : 'a t -> 'a option
val pop_back : 'a t -> 'a option
val peek_front : 'a t -> 'a option
val peek_back : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

val to_list : 'a t -> 'a list
(** Front first. *)

val clear : 'a t -> unit
