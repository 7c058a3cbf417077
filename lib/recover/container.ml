(* The durable artifact container: every long-lived file the system
   writes (aged images, checkpoints) is a self-describing envelope

     magic "FFSRECOV" | u32 LE format version | u8 kind length | kind
     | u64 LE payload length | payload | u32 LE CRC-32

   where the CRC covers everything before it (header and payload), so a
   truncated, bit-flipped or foreign file is detected before its bytes
   ever reach [Marshal]. Writes go to a temporary file in the target
   directory, are fsynced, and land with an atomic rename, so a crash
   mid-save leaves either the old artifact or the new one — never a
   torn hybrid. *)

let magic = "FFSRECOV"
let format_version = 1
let max_kind_len = 64

type info = {
  version : int;
  kind : string;
  payload_bytes : int;
  crc_stored : int32;
  crc_computed : int32 option;
}

let crc_ok info =
  match info.crc_computed with
  | Some c -> Int32.equal c info.crc_stored
  | None -> false

let corrupt path fmt =
  Fmt.kstr (fun msg -> Error (Ffs.Error.Corrupt (Fmt.str "%s: %s" path msg))) fmt

(* --- encoding ------------------------------------------------------------- *)

let add_u32_le b v =
  for shift = 0 to 3 do
    Buffer.add_char b (Char.chr (Int32.to_int (Int32.shift_right_logical v (8 * shift)) land 0xff))
  done

let add_u64_le b v =
  for shift = 0 to 7 do
    Buffer.add_char b (Char.chr ((v lsr (8 * shift)) land 0xff))
  done

let header ~kind ~payload_len =
  if String.length kind = 0 || String.length kind > max_kind_len then
    invalid_arg "Container.write: kind must be 1..64 bytes";
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  add_u32_le b (Int32.of_int format_version);
  Buffer.add_char b (Char.chr (String.length kind));
  Buffer.add_string b kind;
  add_u64_le b payload_len;
  Buffer.contents b

(* --- writing -------------------------------------------------------------- *)

let fsync_dir dir =
  (* best-effort: directory fsync is what makes the rename itself
     durable; some filesystems refuse it, which is not our failure *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let write_parts ~path ~kind parts =
  (* the payload is the parts in order; each is streamed straight to the
     file and through the CRC, so no concatenated copy is ever built *)
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let payload_len = List.fold_left (fun acc p -> acc + String.length p) 0 parts in
        let hdr = header ~kind ~payload_len in
        output_string oc hdr;
        let crc = ref Util.Crc32.(update empty hdr ~pos:0 ~len:(String.length hdr)) in
        List.iter
          (fun p ->
            output_string oc p;
            crc := Util.Crc32.update !crc p ~pos:0 ~len:(String.length p))
          parts;
        let b = Buffer.create 4 in
        add_u32_le b (Util.Crc32.finish !crc);
        output_string oc (Buffer.contents b);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))
  with
  | () -> Sys.rename tmp path; fsync_dir dir
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write ~path ~kind payload = write_parts ~path ~kind [ payload ]

(* --- reading -------------------------------------------------------------- *)

let read_u32_le s pos =
  let byte i = Int32.of_int (Char.code s.[pos + i]) in
  Int32.logor (byte 0)
    (Int32.logor
       (Int32.shift_left (byte 1) 8)
       (Int32.logor (Int32.shift_left (byte 2) 16) (Int32.shift_left (byte 3) 24)))

let read_u64_le s pos =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

(* Parse the whole file. Returns the header info (with the CRC over what
   is actually present) and, when intact, the payload. *)
let parse path =
  if not (Sys.file_exists path) then corrupt path "no such file"
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let file_len = in_channel_length ic in
        let contents = really_input_string ic file_len in
        let fixed = String.length magic + 4 + 1 in
        if file_len < fixed then corrupt path "truncated header (%d bytes)" file_len
        else if String.sub contents 0 (String.length magic) <> magic then
          corrupt path "not a container (bad magic)"
        else begin
          let version = Int32.to_int (read_u32_le contents (String.length magic)) in
          let kind_len = Char.code contents.[String.length magic + 4] in
          if kind_len = 0 || kind_len > max_kind_len then
            corrupt path "corrupt header (kind length %d)" kind_len
          else if file_len < fixed + kind_len + 8 then
            corrupt path "truncated header (%d bytes)" file_len
          else begin
            let kind = String.sub contents fixed kind_len in
            let payload_len = read_u64_le contents (fixed + kind_len) in
            let payload_off = fixed + kind_len + 8 in
            if payload_len < 0 || payload_off + payload_len + 4 > file_len then begin
              (* truncated payload or trailer: report what we can *)
              Ok
                ( { version; kind; payload_bytes = payload_len; crc_stored = 0l;
                    crc_computed = None },
                  None )
            end
            else begin
              let crc_stored = read_u32_le contents (payload_off + payload_len) in
              let crc_computed =
                Util.Crc32.(finish (update empty contents ~pos:0 ~len:(payload_off + payload_len)))
              in
              let info =
                { version; kind; payload_bytes = payload_len; crc_stored;
                  crc_computed = Some crc_computed }
              in
              Ok (info, Some (String.sub contents payload_off payload_len))
            end
          end
        end)
  end

let inspect ~path = Result.map fst (parse path)

let read ~path ~kind =
  match parse path with
  | Error _ as e -> e
  | Ok (info, payload) ->
      if info.version <> format_version then
        corrupt path "unsupported container version %d (this build reads %d)" info.version
          format_version
      else if info.kind <> kind then
        corrupt path "container holds %S, expected %S" info.kind kind
      else begin
        match payload with
        | None -> corrupt path "truncated (%d payload bytes promised)" info.payload_bytes
        | Some p ->
            if not (crc_ok info) then
              corrupt path "checksum mismatch (stored %08lx, computed %08lx)" info.crc_stored
                (Option.value ~default:0l info.crc_computed)
            else Ok p
      end
