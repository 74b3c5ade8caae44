(** A transfer opportunity.

    The paper's system model (§3.1) annotates each node meeting with a tuple
    [(t_e, s_e)]: the time of the meeting and the size of the transfer
    opportunity. Meetings are discrete and short-lived; all bytes moved
    during a meeting (data and control metadata) must fit in [bytes]. *)

type t = {
  time : float;  (** Seconds from the start of the trace. *)
  a : int;  (** First endpoint (node id). *)
  b : int;  (** Second endpoint; [a <> b]. *)
  bytes : int;  (** Size of the transfer opportunity, in bytes. *)
}

val make : time:float -> a:int -> b:int -> bytes:int -> t
(** Validates [a <> b], a finite [time >= 0.], [bytes >= 0]. *)

val involves : t -> int -> bool
val peer_of : t -> int -> int
(** [peer_of c x] is the other endpoint; raises [Invalid_argument] if [x]
    is not an endpoint. *)

val compare_by_time : t -> t -> int
val pp : Format.formatter -> t -> unit
