let pp_bytes ppf n =
  let render unit_name unit_size =
    if n mod unit_size = 0 then Fmt.pf ppf "%d %s" (n / unit_size) unit_name
    else Fmt.pf ppf "%.1f %s" (float_of_int n /. float_of_int unit_size) unit_name
  in
  if n >= 1 lsl 30 then render "GB" (1 lsl 30)
  else if n >= 1 lsl 20 then render "MB" (1 lsl 20)
  else if n >= 1 lsl 10 then render "KB" (1 lsl 10)
  else Fmt.pf ppf "%d B" n

let mb_per_sec ~bytes ~seconds =
  if seconds = 0.0 then nan else float_of_int bytes /. 1048576.0 /. seconds
