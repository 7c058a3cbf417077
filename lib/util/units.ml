let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024
let kib_f = 1024.0
let mib_f = 1048576.0
let bytes_of_kib n = n * kib
let bytes_of_mib n = n * mib

let pp_bytes ppf n =
  let render unit_name unit_size =
    if n mod unit_size = 0 then Fmt.pf ppf "%d %s" (n / unit_size) unit_name
    else Fmt.pf ppf "%.1f %s" (float_of_int n /. float_of_int unit_size) unit_name
  in
  if n >= gib then render "GB" gib
  else if n >= mib then render "MB" mib
  else if n >= kib then render "KB" kib
  else Fmt.pf ppf "%d B" n

let mb_per_sec ~bytes ~seconds =
  if seconds = 0.0 then nan else float_of_int bytes /. mib_f /. seconds
