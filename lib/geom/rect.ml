type t = { x_lo : int; x_hi : int; y_lo : int; y_hi : int }

let of_point ~x ~y = { x_lo = x; x_hi = x; y_lo = y; y_hi = y }

let add_point t ~x ~y =
  { x_lo = min t.x_lo x; x_hi = max t.x_hi x; y_lo = min t.y_lo y; y_hi = max t.y_hi y }

let of_points = function
  | [] -> None
  | (x, y) :: rest ->
    let add acc (x, y) = add_point acc ~x ~y in
    Some (List.fold_left add (of_point ~x ~y) rest)

let width t = t.x_hi - t.x_lo
let height t = t.y_hi - t.y_lo
let half_perimeter t = width t + height t

let union a b =
  { x_lo = min a.x_lo b.x_lo;
    x_hi = max a.x_hi b.x_hi;
    y_lo = min a.y_lo b.y_lo;
    y_hi = max a.y_hi b.y_hi }

let mem t ~x ~y = t.x_lo <= x && x <= t.x_hi && t.y_lo <= y && y <= t.y_hi
let equal a b = a = b
