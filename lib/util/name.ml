let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let numbered prefix n =
  if n < 0 then prefix ^ string_of_int n
  else begin
    let lp = String.length prefix in
    let len = lp + digits n in
    let b = Bytes.create len in
    Bytes.blit_string prefix 0 b 0 lp;
    let rest = ref n in
    for i = len - 1 downto lp do
      Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!rest mod 10)));
      rest := !rest / 10
    done;
    Bytes.unsafe_to_string b
  end
