#!/usr/bin/env bash
# Full verification gate for the durability + serving work (and the tier-1
# suite):
#
#   1. Release build + complete ctest suite (tier-1 gate).
#   2. ASan build: corruption fuzzing, checkpoint/resume, io, parallel,
#      serve, the kernel path, the model (core_test: the value forward
#      against the tape forward in every config), and the tensor, autograd
#      and layer tests, whose recycled tensor storage poisons parked blocks
#      (a read through a freed tensor must still report); UBSan build: serve
#      + net (request parsing, batching and framing of untrusted bytes), io
#      fuzzing, the index and raw-text robustness, and the tensor kernels
#      (the probe still runs the SIMD tiles there, on its shapes, before
#      rejecting them at -O1), autograd, the kernel path, whose vector tanh
#      runs at -O1 too, and the model.
#   3. TSan build: checkpointed data-parallel training + parallel + serve +
#      the kernel path + the model + tensor storage handed across threads
#      and concurrent backward walks over shared parameter leaves.
#   4. CLI crash-recovery drill, at 1 and at 2 threads: train with
#      checkpointing, kill the run mid-checkpoint-write via fault injection
#      (leaving a torn temp file), corrupt the newest checkpoint, resume, and
#      verify the final model is byte-identical to an uninterrupted run that
#      wrote no checkpoints.
#   5. Serve smoke drill: bring up bootleg_serve on the tiny model from (4),
#      drive it over stdin and TCP with concurrent clients (malformed lines
#      included), assert stats are sane, hot-reload via SIGHUP, and verify a
#      clean SIGTERM shutdown. An unknown or retired flag (--max_wait_us,
#      --backend, --cache) and a non-integer integer flag must exit 2; so must
#      `bootleg_cli train` with a non-integer --epochs, an unknown
#      --ablation, a misspelled flag, or --resume without --checkpoint_dir,
#      `gen --scale` or `eval --split` with a value outside its choices, and
#      `eval --noise_rates` or `--overshadow_prior` with a value that is not
#      one finite number in its range. `eval` of a model whose .meta sidecar
#      names another preset must fail and leave the model file unchanged.
#   6. Observability self-check: metrics/trace unit tests, the stats op must
#      export the metrics registry (queue-wait histogram included) and
#      per-stage spans covering a request end to end, and `train --trace_out`
#      must emit a JSONL trace covering a full training step.
#   7. Embedding-store drill: export the trained model to a mmap store,
#      verify every shard checksum, serve from the store, then export a new
#      int8 generation and SIGHUP-swap it in under concurrent load — no
#      request may drop, and stats must report the new generation. On a copy
#      of the float export, `bootleg_cli induce` with an --aliases prior that
#      is not a number must exit 2 and publish nothing; a good one publishes
#      generation 2, which must verify.
#   8. Overload drill: hammer the epoll front end with ~10x more pipelined
#      clients than the admission watermark admits, plus slowloris, dead
#      readers and an over-cap request line. Every overflow request must get
#      a structured overloaded/deadline_exceeded/transport reply (no stalls,
#      no crash), every hostile client must be disconnected, accepted-request
#      p99 must stay bounded, RSS must not balloon, and stats must stay
#      reachable afterwards and report the shedding counters.
#   9. Live-add drill: serve from the store, add_entity a never-trained
#      entity while concurrent clients keep disambiguating (the generation
#      swap is in-process — no SIGHUP, no restart, zero dropped requests),
#      query the new entity immediately, compact the delta chain with
#      `bootleg_cli compact`, SIGHUP onto the flat generation, and verify
#      the entity still serves and the store still checks out.
#  10. Residency drill: serve the same request set from an unmanaged store
#      and from one budgeted to 50% of its mapped bytes
#      (--resident_budget_mb). The reply streams must be byte-identical
#      (advisories never change gathered bytes), stats must report the
#      store residency block (budget, resident bytes, cold faults,
#      evictions, prefetches), the sweep-sampled resident bytes must honor
#      the budget, and the budgeted server's VmRSS must stay bounded by the
#      unmanaged server's.
#  11. Robustness drill: raw-text serving end to end. A `disambiguate_text`
#      request carrying one sentence must reply byte-identically to the
#      pre-segmented `disambiguate` op; a multi-sentence document must
#      report per-mention sentence indices and document-level spans and be
#      deterministic across repeats; hostile inputs (overlong tokens,
#      punctuation-only, empty, noisy typos, with and without
#      --char_fallback) must always get structured replies; and
#      `bootleg_cli eval --noise_rates` output must be byte-identical
#      across runs (the noisy slices are seeded, not sampled).
#
# Usage: tools/check.sh [--skip-san]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SAN=0
[[ "${1:-}" == "--skip-san" ]] && SKIP_SAN=1

JOBS="$(nproc)"

echo "==> [1/11] Release build + full test suite"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" >/dev/null
(cd build && ctest --output-on-failure)

if [[ "$SKIP_SAN" == "0" ]]; then
  echo "==> [2/11] ASan: fuzz + checkpoint + io + parallel + serve"
  cmake -B build-asan -S . -DBOOTLEG_SANITIZE=address >/dev/null
  cmake --build build-asan -j"$JOBS" \
    --target io_fuzz_test checkpoint_test util_test robustness_test \
             parallel_test serve_test metrics_test store_test \
             backend_test net_test index_test robust_test core_test \
             tensor_test autograd_test nn_test >/dev/null
  for t in io_fuzz_test checkpoint_test util_test robustness_test \
           parallel_test serve_test metrics_test store_test backend_test \
           net_test index_test robust_test core_test tensor_test \
           autograd_test nn_test; do
    echo "  asan: $t"
    ./build-asan/tests/"$t" >/dev/null
  done

  echo "==> [2/11] UBSan: serve + net + io fuzz + robust + index + kernels"
  cmake -B build-ubsan -S . -DBOOTLEG_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j"$JOBS" \
    --target serve_test net_test io_fuzz_test robust_test index_test \
             parallel_test tensor_test autograd_test backend_test \
             core_test >/dev/null
  for t in serve_test net_test io_fuzz_test robust_test index_test \
           parallel_test tensor_test autograd_test backend_test core_test; do
    echo "  ubsan: $t"
    UBSAN_OPTIONS=print_stacktrace=1 ./build-ubsan/tests/"$t" >/dev/null
  done

  echo "==> [3/11] TSan: checkpointed parallel training + serving under load"
  cmake -B build-tsan -S . -DBOOTLEG_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$JOBS" \
    --target checkpoint_test parallel_test serve_test metrics_test \
             store_test backend_test net_test index_test robust_test \
             core_test tensor_test autograd_test nn_test >/dev/null
  for t in checkpoint_test parallel_test serve_test metrics_test store_test \
           backend_test net_test index_test robust_test core_test \
           tensor_test autograd_test nn_test; do
    echo "  tsan: $t"
    ./build-tsan/tests/"$t" >/dev/null
  done
else
  echo "==> [2/11],[3/11] sanitizer stages skipped (--skip-san)"
fi

echo "==> [4/11] CLI kill-at-step-K -> resume -> bit-identical verify"
CLI=./build/tools/bootleg_cli
WORK="$(mktemp -d "${TMPDIR:-/tmp}/bootleg_check.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

"$CLI" gen --out "$WORK/data" --scale micro --pages 30 >/dev/null

# One round per worker count: $1 = threads, $2 = where the reference model
# goes. The reference run writes no checkpoints at all, so the cmp at the end
# also proves that checkpointing and resuming never change what is trained.
crash_resume_round() {
  local threads="$1" ref="$2"
  local ckpt="$WORK/ckpt_t$threads"
  local flags=(--data "$WORK/data" --epochs 2 --threads "$threads")
  "$CLI" train "${flags[@]}" --model "$ref" >/dev/null

  # Size the fault budget from one real checkpoint at this worker count.
  "$CLI" train "${flags[@]}" --model "$WORK/probe.bin" --max_steps 1 \
    --checkpoint_dir "$WORK/probe_t$threads" --checkpoint_every 1 >/dev/null
  local ckpt_bytes budget
  ckpt_bytes=$(stat -c%s "$(ls "$WORK/probe_t$threads"/ckpt_*.bin | head -1)")
  budget=$((ckpt_bytes * 3 / 2))

  # Killed run: stop at step 5, and inject a write fault so the in-flight
  # checkpoint write at step 4 tears mid-file. The byte budget admits roughly
  # 1.5 checkpoints, so ckpt_2 lands whole and ckpt_4 is torn.
  set +e
  "$CLI" train "${flags[@]}" --model "$WORK/killed.bin" \
    --checkpoint_dir "$ckpt" --checkpoint_every 2 --max_steps 5 \
    --fault_fail_after "$budget" >/dev/null 2>&1
  local killed_rc=$?
  set -e
  [[ "$killed_rc" != "0" ]] \
    || { echo "FAIL: killed run exited cleanly ($threads threads)"; exit 1; }
  [[ ! -f "$WORK/killed.bin" ]] \
    || { echo "FAIL: killed run saved a model ($threads threads)"; exit 1; }
  ls "$ckpt"/*.tmp >/dev/null 2>&1 \
    || { echo "FAIL: no torn temp file left by the simulated crash"; exit 1; }
  ls "$ckpt"/ckpt_*.bin >/dev/null 2>&1 \
    || { echo "FAIL: no durable checkpoint survived the crash"; exit 1; }

  # Corrupt the newest surviving checkpoint too: recovery must fall back.
  local newest
  newest=$(ls "$ckpt"/ckpt_*.bin | sort -t_ -k2 -n | tail -1)
  if [[ $(ls "$ckpt"/ckpt_*.bin | wc -l) -gt 1 ]]; then
    printf '\x7f' | dd of="$newest" bs=1 seek=40 conv=notrunc status=none
  fi

  # Resume and finish; the final model must match the reference
  # byte-for-byte.
  "$CLI" train "${flags[@]}" --model "$WORK/resumed.bin" \
    --checkpoint_dir "$ckpt" --checkpoint_every 2 --resume \
    | grep -q "resumed from checkpoint" \
    || { echo "FAIL: resume did not pick up a checkpoint"; exit 1; }
  cmp "$ref" "$WORK/resumed.bin" \
    || { echo "FAIL: resumed model differs from a run without checkpoints" \
              "($threads threads)"; exit 1; }
  rm -f "$WORK/resumed.bin" "$WORK/probe.bin"
}
crash_resume_round 1 "$WORK/ref_t1.bin"
crash_resume_round 2 "$WORK/ref.bin"

echo "==> [5/11] serve smoke drill: stdin + TCP, concurrency, SIGHUP, shutdown"
SERVE=./build/tools/bootleg_serve

# --- stdin transport: health, disambiguate, malformed line, stats. ----------
STDIN_OUT=$(printf '%s\n' \
  '{"op": "health"}' \
  '{"op": "disambiguate", "text": "the first page mentions a rare entity"}' \
  'this line is not json at all {{{' \
  '{"op": "disambiguate"}' \
  '{"op": "stats"}' \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin 2>/dev/null)
[[ $(echo "$STDIN_OUT" | wc -l) == 5 ]] \
  || { echo "FAIL: stdin serve: expected 5 replies"; exit 1; }
echo "$STDIN_OUT" | sed -n 1p | grep -q '"status": *"serving"' \
  || { echo "FAIL: stdin serve: bad health reply"; exit 1; }
echo "$STDIN_OUT" | sed -n 2p | grep -q '"ok": *true' \
  || { echo "FAIL: stdin serve: disambiguate failed"; exit 1; }
echo "$STDIN_OUT" | sed -n 3p | grep -q '"ok": *false' \
  || { echo "FAIL: stdin serve: malformed line not rejected"; exit 1; }
echo "$STDIN_OUT" | sed -n 4p | grep -q '"ok": *false' \
  || { echo "FAIL: stdin serve: missing text not rejected"; exit 1; }
echo "$STDIN_OUT" | sed -n 5p \
  | grep -q '"errors": *2.*"p50_us"' \
  || { echo "FAIL: stdin serve: stats missing error count or latency"; exit 1; }

# --- Bad flags: a retired or misspelled flag, or an integer flag whose -------
# value is not a whole number, fails loudly instead of running on defaults.
exits_2() {  # $1 = expected stderr text; remaining args = the command line
  local want="$1"
  shift
  set +e
  "$@" </dev/null >/dev/null 2>"$WORK/bad_flag.log"
  local rc=$?
  set -e
  [[ "$rc" == "2" ]] \
    || { echo "FAIL: ${*:1:2} ... exited $rc, want 2"; exit 1; }
  grep -q -- "$want" "$WORK/bad_flag.log" \
    || { echo "FAIL: ${*:1:2} ...: '$want' not on stderr"; exit 1; }
}
bad_flag() {  # $1 = expected stderr text; remaining args = the bad flag
  exits_2 "$1" "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin \
    "${@:2}"
}
bad_flag 'unknown flag --max_wait_us' --max_wait_us 500
bad_flag 'unknown flag --backend' --backend simd
bad_flag 'unknown flag --cache' --cache 16
bad_flag '--max_batch needs a whole number' --max_batch abc
# bootleg_cli rejects the same mistakes before it loads any data.
bad_train_flag() {  # $1 = expected stderr text; remaining args = the bad flag
  exits_2 "$1" "$CLI" train --data "$WORK/data" --model "$WORK/bad.bin" \
    "${@:2}"
}
bad_train_flag '--epochs needs a whole number' --epochs abc
bad_train_flag 'unknown --ablation foo' --ablation foo
bad_train_flag 'unknown flag --epoch' --epoch 3
bad_train_flag '--resume needs --checkpoint_dir' --resume
# A choice flag with a value outside its choices is rejected, not read as the
# default (--scale mian would build the micro world, --split tst the dev set).
exits_2 '--scale must be one of micro|main' "$CLI" gen --out "$WORK/bad_gen" \
  --scale mian
[[ ! -e "$WORK/bad_gen" ]] \
  || { echo "FAIL: cli: a rejected gen command wrote data"; exit 1; }
exits_2 '--split must be one of dev|test' "$CLI" eval --data "$WORK/data" \
  --model "$WORK/ref.bin" --split tst
# A number flag must be one finite number in its range: atof read 'O.2' as a
# noisy@0.00 slice and '0,8' as 0, and 1.5 gave an empty overshadowed slice.
exits_2 "--noise_rates needs finite numbers, got 'O.2'" "$CLI" eval \
  --data "$WORK/data" --model "$WORK/ref.bin" --noise_rates 0.1,O.2
exits_2 "--overshadow_prior needs a finite number, got '0,8'" "$CLI" eval \
  --data "$WORK/data" --model "$WORK/ref.bin" --overshadow_prior 0,8
exits_2 '--overshadow_prior must be in (0, 1], got 1.5' "$CLI" eval \
  --data "$WORK/data" --model "$WORK/ref.bin" --overshadow_prior 1.5
[[ ! -f "$WORK/bad.bin" ]] \
  || { echo "FAIL: cli: a rejected train command saved a model"; exit 1; }
# A model whose .meta sidecar names another preset than it was trained with
# fails to load, and the user's file stays exactly as it was.
cp "$WORK/ref.bin" "$WORK/meta_mismatch.bin"
cp "$WORK/ref.bin" "$WORK/meta_mismatch.copy"
echo ent >"$WORK/meta_mismatch.bin.meta"
set +e
"$CLI" eval --data "$WORK/data" --model "$WORK/meta_mismatch.bin" \
  >/dev/null 2>&1
MISMATCH_RC=$?
set -e
[[ "$MISMATCH_RC" != "0" ]] \
  || { echo "FAIL: cli: eval loaded a model under a mismatched .meta"; exit 1; }
cmp "$WORK/meta_mismatch.bin" "$WORK/meta_mismatch.copy" \
  || { echo "FAIL: cli: eval removed or changed a model on a .meta mismatch"; \
       exit 1; }

# --- TCP transport: concurrent clients, SIGHUP hot-reload, clean SIGTERM. ---
"$SERVE" --data "$WORK/data" --checkpoint_dir "$WORK/ckpt_t2" --port 0 \
  2>"$WORK/serve.log" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/serve.log")
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: serve: no listening port"; exit 1; }

# Helper: one request/reply exchange over a fresh connection via /dev/tcp.
serve_rpc() {
  exec 3<>"/dev/tcp/127.0.0.1/$PORT"
  printf '%s\n' "$1" >&3
  local reply
  IFS= read -r reply <&3
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
}

CLIENT_PIDS=()
for c in 1 2 3 4; do
  (
    for _ in 1 2 3 4 5; do
      serve_rpc '{"op": "disambiguate", "text": "entities appear on every page"}' \
        | grep -q '"ok": *true' || exit 1
    done
    serve_rpc 'not json' | grep -q '"ok": *false' || exit 1
  ) &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "FAIL: serve: concurrent TCP client failed"; exit 1; }
done

STATS=$(serve_rpc '{"op": "stats"}')
echo "$STATS" | grep -q '"requests": *20' \
  || { echo "FAIL: serve: expected 20 requests in stats: $STATS"; exit 1; }
echo "$STATS" | grep -q '"errors": *4' \
  || { echo "FAIL: serve: expected 4 errors in stats: $STATS"; exit 1; }
echo "$STATS" | grep -Eq '"p50_us": *[1-9]' \
  || { echo "FAIL: serve: latency percentiles missing: $STATS"; exit 1; }

kill -HUP "$SERVE_PID"
sleep 0.2
serve_rpc '{"op": "disambiguate", "text": "one more request after reload"}' \
  | grep -q '"ok": *true' \
  || { echo "FAIL: serve: request after SIGHUP failed"; exit 1; }
serve_rpc '{"op": "stats"}' | grep -Eq '"reloads": *[1-9]' \
  || { echo "FAIL: serve: SIGHUP did not trigger a reload"; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: serve: non-zero exit on SIGTERM"; exit 1; }

echo "==> [6/11] observability: registry + spans in stats, train --trace_out"
./build/tests/metrics_test >/dev/null \
  || { echo "FAIL: metrics_test failed"; exit 1; }

# A fresh stdin server, driven with a sentence containing a real alias (pulled
# from the corpus so the request reaches the model): stats must carry the
# process metrics registry (micro-batcher queue wait) and spans for the whole
# request path (serve.request down to the model's infer.* stages).
ALIAS=$("$CLI" inspect --data "$WORK/data" --n 1 \
  | sed -n 's/.*\[\([^]|>-]*\)->.*/\1/p' | head -1)
[[ -n "$ALIAS" ]] || { echo "FAIL: could not extract an alias"; exit 1; }
OBS_STATS=$(printf '%s\n' \
  "{\"op\": \"disambiguate\", \"text\": \"the $ALIAS appears here\"}" \
  '{"op": "stats"}' \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin 2>/dev/null \
  | sed -n 2p)
for key in '"registry"' '"spans"' 'serve.queue_wait_us' '"span": *"serve.request"' \
           '"span": *"infer.encode"' '"span": *"infer.score"'; do
  echo "$OBS_STATS" | grep -Eq "$key" \
    || { echo "FAIL: stats missing $key: $OBS_STATS"; exit 1; }
done

# --no_trace must suppress the span report but keep the stats op working.
printf '%s\n' \
  "{\"op\": \"disambiguate\", \"text\": \"the $ALIAS appears here\"}" \
  '{"op": "stats"}' \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin --no_trace \
      2>/dev/null \
  | sed -n 2p | grep -Eq '"spans": *\[\]' \
  || { echo "FAIL: --no_trace still reported spans"; exit 1; }

# Traced training run (= flag syntax on purpose): the JSONL must cover a full
# step — forward/backward, the optimizer, and the epoch that contains them.
"$CLI" train --data "$WORK/data" --model "$WORK/traced.bin" --epochs 1 \
  --trace_out="$WORK/trace.jsonl" >/dev/null
for stage in train.epoch train.forward_backward train.step nn.adam.step; do
  grep -q "\"span\": \"$stage\"" "$WORK/trace.jsonl" \
    || { echo "FAIL: trace_out missing stage $stage"; exit 1; }
done

echo "==> [7/11] store drill: export -> verify -> serve -> SIGHUP generation swap"
"$CLI" export-store --data "$WORK/data" --model "$WORK/ref.bin" \
  --out "$WORK/store/gen_000001" --quant float32 >/dev/null
"$CLI" store --dir "$WORK/store" --verify >/dev/null \
  || { echo "FAIL: store verify failed"; exit 1; }

# Offline induce onto a copy of the export. Each --aliases prior must be one
# finite number: '0.3x' is refused before any load and publishes nothing.
mkdir -p "$WORK/induce_store"
cp -r "$WORK/store/gen_000001" "$WORK/induce_store/gen_000001"
induce() {
  "$CLI" induce --data "$WORK/data" --model "$WORK/ref.bin" \
    --store "$WORK/induce_store" --title zzinduced "$@"
}
exits_2 "--aliases needs alias\[=prior\] with a finite prior, got 'zzinduced=0.3x'" \
  induce --aliases zzinduced=0.3x
[[ ! -e "$WORK/induce_store/gen_000002" ]] \
  || { echo "FAIL: induce: a rejected --aliases published a generation"; exit 1; }
induce --aliases zzinduced=0.5 | grep -q 'generation 2' \
  || { echo "FAIL: induce: no generation 2 published"; exit 1; }
"$CLI" store --dir "$WORK/induce_store" --verify >/dev/null \
  || { echo "FAIL: induce: the induced generation failed verify"; exit 1; }

"$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" \
  --store_dir "$WORK/store" --port 0 2>"$WORK/serve_store.log" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/serve_store.log")
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: store serve: no listening port"; exit 1; }

serve_rpc "{\"op\": \"disambiguate\", \"text\": \"the $ALIAS appears here\"}" \
  | grep -q '"ok": *true' \
  || { echo "FAIL: store serve: disambiguate failed"; exit 1; }
STORE_STATS=$(serve_rpc '{"op": "stats"}')
echo "$STORE_STATS" | grep -q '"generation": *1' \
  || { echo "FAIL: store serve: stats missing generation 1: $STORE_STATS"; exit 1; }
echo "$STORE_STATS" | grep -Eq '"resident_shards": *[1-9]' \
  || { echo "FAIL: store serve: no resident shards: $STORE_STATS"; exit 1; }

# Export a quantized second generation, then swap it in live: concurrent
# clients keep hammering across the SIGHUP and none may see a failure.
"$CLI" export-store --data "$WORK/data" --model "$WORK/ref.bin" \
  --out "$WORK/store/gen_000002" --quant int8 >/dev/null
CLIENT_PIDS=()
for c in 1 2 3; do
  (
    for _ in $(seq 1 8); do
      serve_rpc "{\"op\": \"disambiguate\", \"text\": \"the $ALIAS appears here\"}" \
        | grep -q '"ok": *true' || exit 1
    done
  ) &
  CLIENT_PIDS+=($!)
done
kill -HUP "$SERVE_PID"
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" \
    || { echo "FAIL: store serve: request dropped across generation swap"; exit 1; }
done
sleep 0.2
STORE_STATS=$(serve_rpc '{"op": "stats"}')
echo "$STORE_STATS" | grep -q '"generation": *2' \
  || { echo "FAIL: store serve: SIGHUP did not swap to generation 2: $STORE_STATS"; exit 1; }
echo "$STORE_STATS" | grep -q '"dtype": *"int8"' \
  || { echo "FAIL: store serve: generation 2 is not the int8 export: $STORE_STATS"; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: store serve: non-zero exit on SIGTERM"; exit 1; }

echo "==> [8/11] overload drill: admission control, deadline shedding, hostile clients"
DRILL=./build/tools/overload_drill

"$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --port 0 \
  --max_batch 8 --max_queue 32 --workers 1 \
  --io_threads 2 --max_conns 256 --admission_watermark 24 \
  --max_line_bytes 65536 --write_buf_bytes 65536 \
  2>"$WORK/serve_overload.log" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/serve_overload.log")
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: overload serve: no listening port"; exit 1; }
RSS_BEFORE=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")

# ~10x the watermark in outstanding requests (48 conns x 8 pipelined vs a
# watermark of 24), with a hostile-client pool alongside. The drill itself
# asserts: zero stalls, and every slowloris/dead-reader/big-blob client cut.
DRILL_OUT=$("$DRILL" --port "$PORT" --conns 48 --pipeline 8 --requests 50 \
  --deadline_ms 100 --slowloris 4 --deadreaders 3 --bigblobs 2) \
  || { echo "FAIL: overload drill: $DRILL_OUT"; exit 1; }
echo "  $DRILL_OUT"

drill_field() { echo "$DRILL_OUT" | sed -n "s/.*$1=\([0-9-]*\).*/\1/p"; }
OK_N=$(drill_field ok); OVER_N=$(drill_field overloaded)
SHED_N=$(drill_field deadline_exceeded); P99_N=$(drill_field p99_ok_us)
[[ "$OK_N" -gt 0 ]] \
  || { echo "FAIL: overload drill: no request succeeded"; exit 1; }
[[ $((OVER_N + SHED_N)) -gt 0 ]] \
  || { echo "FAIL: overload drill: 10x load produced no structured sheds"; exit 1; }
[[ "$P99_N" -lt 5000000 ]] \
  || { echo "FAIL: overload drill: accepted p99 ${P99_N}us unbounded"; exit 1; }

# The process survived with bounded memory (hostile buffers are capped).
kill -0 "$SERVE_PID" || { echo "FAIL: overload drill: server died"; exit 1; }
RSS_AFTER=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")
[[ $((RSS_AFTER - RSS_BEFORE)) -lt 153600 ]] \
  || { echo "FAIL: overload drill: RSS grew $((RSS_AFTER - RSS_BEFORE))kB"; exit 1; }

# Stats stay reachable and report the shedding machinery.
OVERLOAD_STATS=$(serve_rpc '{"op": "stats"}')
for key in '"shed"' '"overloaded"' '"accept_errors"' '"net"' '"connections"'; do
  echo "$OVERLOAD_STATS" | grep -q "$key" \
    || { echo "FAIL: overload drill: stats missing $key"; exit 1; }
done

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: overload drill: non-zero exit on SIGTERM"; exit 1; }

echo "==> [9/11] live-add drill: add_entity under load -> in-process swap -> compact"
# Serve from the stage-7 store (newest generation: the int8 gen_000002). The
# idle reaper runs with a generous timeout so it cannot touch the drill's
# request-bearing connections — it just has to not misfire.
"$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" \
  --store_dir "$WORK/store" --port 0 --idle_timeout_ms 30000 \
  2>"$WORK/serve_live.log" &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$WORK/serve_live.log")
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || { echo "FAIL: live-add: no listening port"; exit 1; }

# Concurrent disambiguate load spanning the add_entity call and its
# in-process generation swap: zero drops allowed.
CLIENT_PIDS=()
for c in 1 2 3; do
  (
    for _ in $(seq 1 12); do
      serve_rpc "{\"op\": \"disambiguate\", \"text\": \"the $ALIAS appears here\"}" \
        | grep -q '"ok": *true' || exit 1
    done
  ) &
  CLIENT_PIDS+=($!)
done

# The entity exists in no corpus, no checkpoint, no export. One request makes
# it servable: induce from the frozen tables, publish chained gen_000003,
# adopt in-process — no SIGHUP, no restart.
ADD_REPLY=$(serve_rpc '{"op": "add_entity", "title": "zzdrillentity"}')
echo "$ADD_REPLY" | grep -q '"ok": *true' \
  || { echo "FAIL: live-add: add_entity rejected: $ADD_REPLY"; exit 1; }
echo "$ADD_REPLY" | grep -q '"generation": *3' \
  || { echo "FAIL: live-add: no chained generation: $ADD_REPLY"; exit 1; }

# Immediately servable, and the prediction is the new entity (its alias is
# brand new, so it is the only candidate).
serve_rpc '{"op": "disambiguate", "text": "zzdrillentity appears here"}' \
  | grep -q '"title": *"zzdrillentity"' \
  || { echo "FAIL: live-add: new entity not served"; exit 1; }

for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" \
    || { echo "FAIL: live-add: request dropped across live add"; exit 1; }
done

LIVE_STATS=$(serve_rpc '{"op": "stats"}')
echo "$LIVE_STATS" | grep -q '"generation": *3' \
  || { echo "FAIL: live-add: stats missing generation 3: $LIVE_STATS"; exit 1; }
echo "$LIVE_STATS" | grep -q '"induced_entities": *1' \
  || { echo "FAIL: live-add: stats missing induced entity: $LIVE_STATS"; exit 1; }
echo "$LIVE_STATS" | grep -q '"idle_disconnects": *0' \
  || { echo "FAIL: live-add: idle reaper misfired: $LIVE_STATS"; exit 1; }

# A non-loopback spec parse cannot be driven from here (every /dev/tcp client
# is loopback), but a malformed spec must come back structured, not crash.
serve_rpc '{"op": "add_entity", "title": "zzdrillentity"}' \
  | grep -q '"code": *"bad_request"' \
  || { echo "FAIL: live-add: duplicate title not rejected"; exit 1; }

# Compact the chain (the server keeps serving the chain meanwhile), SIGHUP
# onto the flat generation, and re-verify: same entity, clean store.
"$CLI" compact --dir "$WORK/store" | grep -q "into flat generation 4" \
  || { echo "FAIL: live-add: compact did not produce generation 4"; exit 1; }
"$CLI" store --dir "$WORK/store" --verify >/dev/null \
  || { echo "FAIL: live-add: compacted store failed verify"; exit 1; }
kill -HUP "$SERVE_PID"
sleep 0.3
serve_rpc '{"op": "disambiguate", "text": "zzdrillentity appears here"}' \
  | grep -q '"title": *"zzdrillentity"' \
  || { echo "FAIL: live-add: entity lost after compaction swap"; exit 1; }
serve_rpc '{"op": "stats"}' | grep -q '"generation": *4' \
  || { echo "FAIL: live-add: SIGHUP did not adopt the flat generation"; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: live-add: non-zero exit on SIGTERM"; exit 1; }

echo "==> [10/11] residency drill: budget-constrained serve, identical replies, bounded RSS"
RES_STORE="$WORK/res_store"
"$CLI" export-store --data "$WORK/data" --model "$WORK/ref.bin" \
  --out "$RES_STORE/gen_000001" --quant float32 >/dev/null

# The fixed request set both servers answer; replies must match byte for byte.
RES_TEXTS=("the $ALIAS appears here" \
           "entities appear on every page" \
           "the first page mentions a rare entity" \
           "one more $ALIAS mention" \
           "rare entities in the tail")

res_serve_start() {  # $1 = extra flags, $2 = log file; sets SERVE_PID + PORT
  # shellcheck disable=SC2086
  "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" \
    --store_dir "$RES_STORE" --port 0 $1 2>"$2" &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$2")
    [[ -n "$PORT" ]] && break
    sleep 0.1
  done
  [[ -n "$PORT" ]] || { echo "FAIL: residency: no listening port"; exit 1; }
}

res_replay() {  # $1 = output file: 4 rounds over the request set, in order
  : >"$1"
  for _ in 1 2 3 4; do
    for text in "${RES_TEXTS[@]}"; do
      serve_rpc "{\"op\": \"disambiguate\", \"text\": \"$text\"}" >>"$1"
    done
  done
}

# Reference pass: unmanaged mmap. Record replies, mapped bytes, and VmRSS.
res_serve_start "" "$WORK/serve_res_unmanaged.log"
res_replay "$WORK/res_replies_unmanaged.txt"
RES_STATS=$(serve_rpc '{"op": "stats"}')
MAPPED_BYTES=$(echo "$RES_STATS" | sed -n 's/.*"mapped_bytes": *\([0-9]*\).*/\1/p')
[[ -n "$MAPPED_BYTES" && "$MAPPED_BYTES" -gt 0 ]] \
  || { echo "FAIL: residency: no mapped_bytes in stats: $RES_STATS"; exit 1; }
echo "$RES_STATS" | grep -q '"resident_budget_bytes"' \
  && { echo "FAIL: residency: unmanaged server reports a budget"; exit 1; }
RSS_UNMANAGED=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: residency: unmanaged non-zero exit on SIGTERM"; exit 1; }

# Budgeted pass: 50% of the mapped bytes, fast sweeps so the clock runs
# several times inside the drill. Same requests, byte-identical replies.
BUDGET_MB=$(awk -v b="$MAPPED_BYTES" 'BEGIN{printf "%.6f", b / 2 / 1048576}')
BUDGET_BYTES=$((MAPPED_BYTES / 2))
res_serve_start "--resident_budget_mb $BUDGET_MB --resident_sweep_ms 50" \
  "$WORK/serve_res_budgeted.log"
res_replay "$WORK/res_replies_budgeted.txt"
grep -q '"ok": *true' "$WORK/res_replies_budgeted.txt" \
  || { echo "FAIL: residency: budgeted serve answered nothing"; exit 1; }
cmp "$WORK/res_replies_unmanaged.txt" "$WORK/res_replies_budgeted.txt" \
  || { echo "FAIL: residency: budgeted replies differ from unmanaged"; exit 1; }

sleep 0.3  # let the clock sweep after the load so the estimate is fresh
RES_STATS=$(serve_rpc '{"op": "stats"}')
for key in '"resident_budget_bytes"' '"resident_bytes"' '"cold_faults"' \
           '"evictions"' '"prefetch_issued"' '"resident_set_shards"'; do
  echo "$RES_STATS" | grep -q "$key" \
    || { echo "FAIL: residency: stats missing $key: $RES_STATS"; exit 1; }
done
# The fractional-MiB flag round-trips through a double, so allow a page of
# truncation slop on the reported budget.
REPORTED_BUDGET=$(echo "$RES_STATS" \
  | sed -n 's/.*"resident_budget_bytes": *\([0-9]*\).*/\1/p')
[[ -n "$REPORTED_BUDGET" ]] \
  || { echo "FAIL: residency: no budget in stats: $RES_STATS"; exit 1; }
BUDGET_DIFF=$((REPORTED_BUDGET - BUDGET_BYTES))
[[ "${BUDGET_DIFF#-}" -le 4096 ]] \
  || { echo "FAIL: residency: budget $REPORTED_BUDGET far from ${BUDGET_BYTES}: $RES_STATS"; exit 1; }
RESIDENT_BYTES=$(echo "$RES_STATS" \
  | sed -n 's/.*"resident_bytes": *\([0-9]*\).*/\1/p')
# The sweep-sampled resident set must honor the budget (slack: one shard's
# worth of pages for the always-pinned hottest shard plus page rounding).
SLACK=$((MAPPED_BYTES / 4 + 65536))
[[ "$RESIDENT_BYTES" -le $((BUDGET_BYTES + SLACK)) ]] \
  || { echo "FAIL: residency: resident ${RESIDENT_BYTES}B exceeds budget ${BUDGET_BYTES}B + slack"; exit 1; }

# Same work, bounded memory: the budgeted server must not out-grow the
# unmanaged one (generous slack absorbs allocator noise between runs).
RSS_BUDGETED=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")
[[ "$RSS_BUDGETED" -le $((RSS_UNMANAGED + 16384)) ]] \
  || { echo "FAIL: residency: budgeted VmRSS ${RSS_BUDGETED}kB vs unmanaged ${RSS_UNMANAGED}kB"; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" \
  || { echo "FAIL: residency: budgeted non-zero exit on SIGTERM"; exit 1; }

echo "==> [11/11] robustness drill: raw-text serving, hostile inputs, deterministic noisy eval"

# --- Raw-text serving: one stdin session answers the pre-segmented op, the
# raw-text op on the same sentence, and a two-sentence document twice.
RT_TEXT="the $ALIAS appears here"
RT_DOC="$RT_TEXT . again the $ALIAS returns"
RT_OUT=$(printf '%s\n' \
  "{\"op\": \"disambiguate\", \"text\": \"$RT_TEXT\"}" \
  "{\"op\": \"disambiguate_text\", \"text\": \"$RT_TEXT\"}" \
  "{\"op\": \"disambiguate_text\", \"text\": \"$RT_DOC\"}" \
  "{\"op\": \"disambiguate_text\", \"text\": \"$RT_DOC\"}" \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin 2>/dev/null)
[[ $(echo "$RT_OUT" | wc -l) == 4 ]] \
  || { echo "FAIL: raw-text drill: expected 4 replies"; exit 1; }
echo "$RT_OUT" | sed -n 1p | grep -q '"ok": *true' \
  || { echo "FAIL: raw-text drill: pre-segmented request failed"; exit 1; }
# Acceptance bar: single-sentence raw text is byte-identical to pre-segmented.
[[ "$(echo "$RT_OUT" | sed -n 1p)" == "$(echo "$RT_OUT" | sed -n 2p)" ]] \
  || { echo "FAIL: raw-text drill: disambiguate_text differs from disambiguate"; exit 1; }
# The document reply carries a second sentence with document-level spans.
echo "$RT_OUT" | sed -n 3p | grep -q '"sentence": *1' \
  || { echo "FAIL: raw-text drill: no sentence index 1 in document reply"; exit 1; }
echo "$RT_OUT" | sed -n 3p | grep -q "\"alias\": *\"$ALIAS\"" \
  || { echo "FAIL: raw-text drill: alias not extracted from raw document"; exit 1; }
# Same document, same reply: extraction and splitting are deterministic.
[[ "$(echo "$RT_OUT" | sed -n 3p)" == "$(echo "$RT_OUT" | sed -n 4p)" ]] \
  || { echo "FAIL: raw-text drill: repeated document replies differ"; exit 1; }

# --- Hostile raw text must always get a structured reply, never a crash:
# overlong token, punctuation-only, empty, lone terminators, typo noise.
LONG_TOKEN=$(printf 'x%.0s' $(seq 1 5000))
NOISY=$(echo "$RT_TEXT" | sed 's/the/teh/; s/appears/appaers/')
HOSTILE_OUT=$(printf '%s\n' \
  "{\"op\": \"disambiguate_text\", \"text\": \"$LONG_TOKEN\"}" \
  '{"op": "disambiguate_text", "text": ". . . ! ? ."}' \
  '{"op": "disambiguate_text", "text": ""}' \
  '{"op": "disambiguate_text", "text": "."}' \
  "{\"op\": \"disambiguate_text\", \"text\": \"$NOISY\"}" \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin 2>/dev/null)
[[ $(echo "$HOSTILE_OUT" | wc -l) == 5 ]] \
  || { echo "FAIL: raw-text drill: hostile input dropped a reply"; exit 1; }
[[ $(echo "$HOSTILE_OUT" | grep -c '"ok":') == 5 ]] \
  || { echo "FAIL: raw-text drill: hostile reply not structured"; exit 1; }
echo "$HOSTILE_OUT" | sed -n 5p | grep -q '"ok": *true' \
  || { echo "FAIL: raw-text drill: noisy text rejected"; exit 1; }

# --char_fallback serves the same noisy traffic (typo-tolerant encoding).
printf '%s\n' "{\"op\": \"disambiguate_text\", \"text\": \"$NOISY\"}" \
  | "$SERVE" --data "$WORK/data" --model "$WORK/ref.bin" --stdin \
      --char_fallback 2>/dev/null \
  | grep -q '"ok": *true' \
  || { echo "FAIL: raw-text drill: --char_fallback serve failed"; exit 1; }

# --- Noisy eval slices are seeded, not sampled: two runs, identical bytes.
"$CLI" eval --data "$WORK/data" --model "$WORK/ref.bin" \
  --noise_rates 0.1,0.3 --noise_seed 7 >"$WORK/eval_a.txt"
"$CLI" eval --data "$WORK/data" --model "$WORK/ref.bin" \
  --noise_rates 0.1,0.3 --noise_seed 7 >"$WORK/eval_b.txt"
cmp "$WORK/eval_a.txt" "$WORK/eval_b.txt" \
  || { echo "FAIL: raw-text drill: noisy eval not deterministic"; exit 1; }
grep -q 'noisy@' "$WORK/eval_a.txt" \
  || { echo "FAIL: raw-text drill: eval missing noisy slices"; exit 1; }
grep -q 'overshadowed' "$WORK/eval_a.txt" \
  || { echo "FAIL: raw-text drill: eval missing overshadowed slice"; exit 1; }
grep -q 'prior-follow' "$WORK/eval_a.txt" \
  || { echo "FAIL: raw-text drill: eval missing prior-follow diagnostic"; exit 1; }

echo "OK: all checks passed"
