(** Small descriptive-statistics helpers used by the benchmark harness to
    summarise subset studies (Figures 1 and 2) as box-plot rows. *)

type box = {
  minimum : float;
  q1 : float;
  median : float;
  q3 : float;
  maximum : float;
  mean : float;
  count : int;
}
(** Five-number summary plus mean, as printed for each box in the subset
    figures. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on the empty list. *)

val box_of : float list -> box
(** Five-number summary of a non-empty sample. *)

val box_of_ints : int list -> box
