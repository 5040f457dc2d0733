(** The analytic model of the pause threshold's impact (App. C).

    A long flow bottlenecked at a switch with enqueue/dequeue rate ratio
    [x > 1] cycles through three phases (build-up, drain, empty-for-an-
    HRTT); [ef] is the steady-state fraction of time the flow has no
    packets at the bottleneck. Th is expressed relative to the one-hop BDP
    at the drain rate: [th_ratio] = Th / (HRTT . mu_f); the paper's setting
    is [th_ratio = 1]. *)

(** [ef ~x ~th_ratio] = (x - 1) / (th_ratio . x + x^2 - 1).
    Raises [Invalid_argument] unless [x > 1] and [th_ratio >= 0]. *)
(* App. C eq. (4); the model tests check worst_x and max_ef against it; bfc-lint: allow DC001 *)
val ef : x:float -> th_ratio:float -> float

(** Phase durations in units of HRTT (for a unit-rate flow):
    (t_p1, t_p2, t_p3) of App. C equations (1)-(3). *)
(* App. C equations (1)-(3); the model tests check them; bfc-lint: allow DC001 *)
val phase_durations : x:float -> th_ratio:float -> float * float * float

(** The x that maximises [ef] for a given threshold: sqrt(th_ratio) + 1. *)
val worst_x : th_ratio:float -> float

(** [max_ef ~th_ratio] = 1 / ((sqrt th_ratio + 1)^2 + 1) — equation (5);
    0.2 at th_ratio = 1 (the "at most 20% of the time" claim). *)
val max_ef : th_ratio:float -> float

(** Peak queue occupancy (in HRTT.mu_f units): th_ratio + (x - 1). *)
val peak_queue : x:float -> th_ratio:float -> float
