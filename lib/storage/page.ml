(* Layout: [0..3] slot count (LE int32) | [4..7] free_end (start of the
   record region, records grow downward from the end) | slot directory from
   byte 8 (per slot: offset int32, length int32; offset = -1 marks a
   tombstone) | free space | records. *)

let page_size = 8192
let header = 8
let slot_bytes = 8

module Obs = Genalg_obs.Obs

let c_reads = Obs.counter "storage.page.reads"
let c_writes = Obs.counter "storage.page.writes"
let c_compactions = Obs.counter "storage.page.compactions"

type t = { data : Bytes.t }

let get_i32 t off = Int32.to_int (Bytes.get_int32_le t.data off)
let set_i32 t off v = Bytes.set_int32_le t.data off (Int32.of_int v)

let slot_count t = get_i32 t 0
let free_end t = get_i32 t 4
let set_slot_count t n = set_i32 t 0 n
let set_free_end t n = set_i32 t 4 n

let slot_off i = header + (i * slot_bytes)
let slot_offset t i = get_i32 t (slot_off i)
let slot_length t i = get_i32 t (slot_off i + 4)

let set_slot t i ~offset ~length =
  set_i32 t (slot_off i) offset;
  set_i32 t (slot_off i + 4) length

let create () =
  let t = { data = Bytes.make page_size '\000' } in
  set_slot_count t 0;
  set_free_end t page_size;
  t

let free_space t =
  free_end t - (header + (slot_count t * slot_bytes)) - slot_bytes

let insert t record =
  let len = Bytes.length record in
  if len > page_size - header - slot_bytes then
    invalid_arg "Page.insert: record exceeds page capacity";
  if free_space t < len then None
  else begin
    Obs.add c_writes 1;
    let n = slot_count t in
    let offset = free_end t - len in
    Bytes.blit record 0 t.data offset len;
    set_slot t n ~offset ~length:len;
    set_free_end t offset;
    set_slot_count t (n + 1);
    Some n
  end

let valid_slot t i = i >= 0 && i < slot_count t

let get t i =
  if not (valid_slot t i) then None
  else begin
    let offset = slot_offset t i in
    if offset < 0 then None
    else begin
      Obs.add c_reads 1;
      Some (Bytes.sub t.data offset (slot_length t i))
    end
  end

let delete t i =
  if not (valid_slot t i) then false
  else begin
    let offset = slot_offset t i in
    if offset < 0 then false
    else begin
      set_slot t i ~offset:(-1) ~length:0;
      true
    end
  end

let live_count t =
  let n = ref 0 in
  for i = 0 to slot_count t - 1 do
    if slot_offset t i >= 0 then incr n
  done;
  !n

let compact t =
  (* Copy live records into a scratch region, tightly packed at the end. *)
  Obs.add c_compactions 1;
  let scratch = Bytes.create page_size in
  let write_ptr = ref page_size in
  let n = slot_count t in
  let moves = Array.make n (-1, 0) in
  for i = 0 to n - 1 do
    let offset = slot_offset t i in
    if offset >= 0 then begin
      let len = slot_length t i in
      write_ptr := !write_ptr - len;
      Bytes.blit t.data offset scratch !write_ptr len;
      moves.(i) <- (!write_ptr, len)
    end
  done;
  Bytes.blit scratch !write_ptr t.data !write_ptr (page_size - !write_ptr);
  for i = 0 to n - 1 do
    let offset, length = moves.(i) in
    if offset >= 0 then set_slot t i ~offset ~length
  done;
  set_free_end t !write_ptr

let update t i record =
  if not (valid_slot t i) then false
  else begin
    let offset = slot_offset t i in
    if offset < 0 then false
    else begin
      let new_len = Bytes.length record in
      let old_len = slot_length t i in
      if new_len <= old_len then begin
        Obs.add c_writes 1;
        Bytes.blit record 0 t.data offset new_len;
        set_slot t i ~offset ~length:new_len;
        true
      end
      else begin
        (* would the record fit once this slot's bytes are reclaimed? *)
        let live_bytes = ref 0 in
        for j = 0 to slot_count t - 1 do
          if j <> i && slot_offset t j >= 0 then live_bytes := !live_bytes + slot_length t j
        done;
        let room = page_size - header - (slot_count t * slot_bytes) - !live_bytes in
        if room < new_len then false
        else begin
          set_slot t i ~offset:(-1) ~length:0;
          compact t;
          Obs.add c_writes 1;
          let offset = free_end t - new_len in
          Bytes.blit record 0 t.data offset new_len;
          set_slot t i ~offset ~length:new_len;
          set_free_end t offset;
          true
        end
      end
    end
  end

let iter f t =
  for i = 0 to slot_count t - 1 do
    match get t i with Some record -> f i record | None -> ()
  done
