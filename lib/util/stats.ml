type box = {
  minimum : float;
  q1 : float;
  median : float;
  q3 : float;
  maximum : float;
  mean : float;
  count : int;
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | sorted ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    if n = 1 then arr.(0)
    else begin
      let pos = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (lo + 1) (n - 1) in
      let frac = pos -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end

let box_of xs =
  match xs with
  | [] -> invalid_arg "Stats.box_of: empty sample"
  | _ ->
    {
      minimum = percentile 0.0 xs;
      q1 = percentile 0.25 xs;
      median = percentile 0.5 xs;
      q3 = percentile 0.75 xs;
      maximum = percentile 1.0 xs;
      mean = mean xs;
      count = List.length xs;
    }

let box_of_ints xs = box_of (List.map float_of_int xs)
