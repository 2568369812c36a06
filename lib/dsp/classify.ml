open Dsp_core
module Rat = Dsp_util.Rat

type params = { eps : Rat.t; delta : Rat.t; mu : Rat.t; target : int }

type classes = {
  large : Item.t list;
  tall : Item.t list;
  vertical : Item.t list;
  medium_vertical : Item.t list;
  horizontal : Item.t list;
  small : Item.t list;
  medium : Item.t list;
}

(* The class boundaries of one (params, strip width) as integer
   cut-offs.  Dimensions are integers, and for an integer v and a
   rational r, v > r iff v > ⌊r⌋ and v >= r iff v >= ⌈r⌉, so each
   boundary is rounded once here and every per-item test compares
   ints. *)
type cuts = {
  tall_h : int;  (* ⌈(1/4+ε)H'⌉ *)
  delta_h : int;  (* ⌊δH'⌋ *)
  eps_h : int;  (* ⌈εH'⌉ *)
  mu_h : int;  (* ⌊μH'⌋ *)
  delta_w : int;  (* ⌈δW⌉ *)
  mu_w : int;  (* ⌊μW⌋ *)
}

let cuts (p : params) ~width =
  let scaled frac scale = Rat.mul frac (Rat.of_int scale) in
  let tall = Rat.(add (make 1 4) p.eps) in
  {
    tall_h = Rat.ceil (scaled tall p.target);
    delta_h = Rat.floor (scaled p.delta p.target);
    eps_h = Rat.ceil (scaled p.eps p.target);
    mu_h = Rat.floor (scaled p.mu p.target);
    delta_w = Rat.ceil (scaled p.delta width);
    mu_w = Rat.floor (scaled p.mu width);
  }

let category c (it : Item.t) =
  let w = it.Item.w and h = it.Item.h in
  if h >= c.tall_h && w < c.delta_w then `Tall
  else if h > c.delta_h && w >= c.delta_w then `Large
  else if h > c.delta_h && h < c.tall_h && w <= c.mu_w then `Vertical
  else if h >= c.eps_h && h < c.tall_h && w > c.mu_w && w < c.delta_w then
    `Medium_vertical
  else if h <= c.mu_h && w >= c.delta_w then `Horizontal
  else if h <= c.mu_h && w <= c.mu_w then `Small
  else `Medium

let classify (inst : Instance.t) p =
  let c = cuts p ~width:inst.Instance.width in
  let push cls it acc =
    match cls with
    | `Large -> { acc with large = it :: acc.large }
    | `Tall -> { acc with tall = it :: acc.tall }
    | `Vertical -> { acc with vertical = it :: acc.vertical }
    | `Medium_vertical -> { acc with medium_vertical = it :: acc.medium_vertical }
    | `Horizontal -> { acc with horizontal = it :: acc.horizontal }
    | `Small -> { acc with small = it :: acc.small }
    | `Medium -> { acc with medium = it :: acc.medium }
  in
  let empty =
    {
      large = [];
      tall = [];
      vertical = [];
      medium_vertical = [];
      horizontal = [];
      small = [];
      medium = [];
    }
  in
  Array.fold_left (fun acc it -> push (category c it) it acc) empty inst.Instance.items

let medium_area (inst : Instance.t) p =
  let c = cuts p ~width:inst.Instance.width in
  Array.fold_left
    (fun acc it ->
      match category c it with
      | `Medium | `Medium_vertical -> acc + Item.area it
      | `Large | `Tall | `Vertical | `Horizontal | `Small -> acc)
    0 inst.Instance.items

let choose_params ?(f = Fun.id) (inst : Instance.t) ~target ~eps =
  let feps = f eps in
  if Rat.(feps <= zero) || Rat.(feps >= one) then
    invalid_arg "Classify.choose_params: f(eps) must be in (0, 1)";
  let area_scale = inst.Instance.width * target in
  (* f(eps) * W * target as a rational bound on the medium area. *)
  let budget = Rat.mul feps (Rat.of_int area_scale) in
  let max_steps =
    min 30 (2 * Rat.ceil (Rat.inv feps))
    (* the pigeonhole guarantees success within 2/f(eps) steps; the
       extra cap only guards against pathological eps *)
  in
  let rec go delta step =
    let mu = Rat.(mul (mul delta delta) feps) in
    let p = { eps; delta; mu; target } in
    if step >= max_steps then p
    else if Rat.(of_int (medium_area inst p) <= budget) then p
    else go mu (step + 1)
  in
  go feps 0

let class_sizes c =
  [
    ("large", List.length c.large);
    ("tall", List.length c.tall);
    ("vertical", List.length c.vertical);
    ("medium-vertical", List.length c.medium_vertical);
    ("horizontal", List.length c.horizontal);
    ("small", List.length c.small);
    ("medium", List.length c.medium);
  ]

let total_items c = Dsp_util.Xutil.sum_by snd (class_sizes c)
