(** A node-meeting schedule: the directed multigraph G = (V, E) of §3.1,
    flattened into a time-sorted contact list over a fixed horizon.

    Each trace corresponds to one experiment (e.g. one DieselNet day);
    packets not delivered by [duration] are lost, matching §6.1 ("each of
    the 58 days is a separate experiment"). [active] lists the nodes that
    are on the road that day — only they source or sink traffic. *)

type t = private {
  num_nodes : int;
  duration : float;
  contacts : Contact.t array;  (** Sorted by time ascending. *)
  active : int array;  (** Sorted ascending, no duplicates. *)
}

val create :
  num_nodes:int -> duration:float -> ?active:int list -> Contact.t list -> t
(** Sorts contacts; validates ids, a finite positive [duration] and
    contact times against it. When [active] is omitted it defaults to all
    nodes appearing in a contact. *)

val num_contacts : t -> int
val total_capacity_bytes : t -> int
(** Σ s_e over all transfer opportunities. *)

val contacts_between : t -> int -> int -> Contact.t list
(** All contacts involving the two given nodes, in time order. *)

val mean_pair_meetings : t -> float
(** Average number of meetings per active unordered pair. *)

val restrict_capacity : t -> f:(Contact.t -> int) -> t
(** Rewrite opportunity sizes (used by the deployment-noise layer). *)

val drop_contacts : t -> keep:(Contact.t -> bool) -> t
val pp_summary : Format.formatter -> t -> unit
