(** Supply-voltage models: alpha-power-law delay and quadratic energy.

    These close the "fabricated chip" gate: the shmoo experiment (paper
    Fig. 9) sweeps VDD and re-derives the macro's maximum frequency from the
    same critical path the STA measured at nominal voltage. *)

(** Velocity-saturation exponent of the alpha-power law. 1.3 is typical for
    a 40 nm bulk process. *)
let alpha = 1.3

(** [vdd_floor node] is the supply at or below which the alpha-power law
    no longer models the node: 20 mV of overdrive above Vth. *)
let vdd_floor (node : Node.t) = node.vth +. 0.02

(** [modeled node ~vdd] holds when [vdd] is above {!vdd_floor}, the range
    where {!delay_scale} is finite. *)
let modeled (node : Node.t) ~vdd = vdd > vdd_floor node

(** [delay_scale node ~vdd] is the multiplicative factor applied to a delay
    characterized at [node.vdd_nominal] when operating at [vdd]; infinite
    outside the {!modeled} range.

    Alpha-power law: t_d proportional to VDD / (VDD - Vth)^alpha. *)
let delay_scale (node : Node.t) ~vdd =
  if not (modeled node ~vdd) then infinity
  else
    let f v = v /. ((v -. node.vth) ** alpha) in
    f vdd /. f node.vdd_nominal

(** [energy_scale node ~vdd] scales switching energy: E proportional to
    VDD^2. *)
let energy_scale (node : Node.t) ~vdd = (vdd /. node.vdd_nominal) ** 2.0

(** [leakage_scale node ~vdd] scales leakage power; subthreshold leakage is
    roughly linear-to-quadratic in VDD, we use an exponent of 1.8. *)
let leakage_scale (node : Node.t) ~vdd = (vdd /. node.vdd_nominal) ** 1.8

(** [fmax node ~crit_path_ps ~vdd] is the maximum clock frequency (Hz) of a
    design whose nominal-voltage critical path is [crit_path_ps]. *)
let fmax (node : Node.t) ~crit_path_ps ~vdd =
  let scale = delay_scale node ~vdd in
  if Float.is_finite scale then 1e12 /. (crit_path_ps *. scale) else 0.0

(** [passes node ~crit_path_ps ~vdd ~freq_hz] is the shmoo pass/fail
    criterion: the scaled critical path must fit in one clock period. *)
let passes (node : Node.t) ~crit_path_ps ~vdd ~freq_hz =
  fmax node ~crit_path_ps ~vdd >= freq_hz
