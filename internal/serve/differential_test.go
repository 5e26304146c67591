package serve

import (
	"context"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/emulator"
	"cinnamon/internal/sched"
)

// sameCiphertext asserts limb-for-limb equality of C0 and C1 plus level
// and scale — the bit-identity every encrypted path owes every other.
func sameCiphertext(t *testing.T, label string, got, want *ckks.Ciphertext) {
	t.Helper()
	if got.Level() != want.Level() || got.Scale != want.Scale {
		t.Fatalf("%s: level/scale %d/%g, want %d/%g", label, got.Level(), got.Scale, want.Level(), want.Scale)
	}
	if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
		t.Fatalf("%s: ciphertexts differ", label)
	}
}

// runLocally is the oracle a served one-shot output is held to: the
// program's executor over the test tenant's keys with local keyswitching, on
// the request truncated to the program's input level.
func runLocally(t *testing.T, program string, ct *ckks.Ciphertext) *ckks.Ciphertext {
	t.Helper()
	ev := tenantEvaluator(env.reg.Params, env.keys)
	prog, _ := env.reg.Program(program)
	out, err := prog.Executor().Run(context.Background(), ev, ct.AtLevel(prog.InLevel), sched.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExecutorsAgreeOnCatalog is the differential oracle behind the single
// serving executor: every shallow program the test parameter set hosts
// (tensor entries included) runs the same ciphertext, truncated to the
// program's input level, through the limb-ISA emulator on the batch-1 module
// lowered at that level, sched.Executor with local keyswitching, and
// sched.Executor with keyswitching over a net.Pipe worker cluster. All three
// must agree bit for bit. The emulator leg lowers the graph on its own path
// (compiler, limbir), so serving through the graph executor alone loses
// nothing that path would have computed differently; what the graph means is
// checked against EvalPlain by TestServeMatchesReference.
func TestExecutorsAgreeOnCatalog(t *testing.T) {
	reg := testEnv(t)
	eng, _ := newTestCluster(t, 3)
	ctx := context.Background()
	names := reg.ProgramNames()
	if len(names) < 6 {
		t.Fatalf("test parameter set hosts only %v", names)
	}
	for i, name := range names {
		prog, _ := reg.Program(name)
		full, _ := encryptRandom(t, int64(7000+i))
		ct := full.AtLevel(prog.InLevel)

		local := tenantEvaluator(reg.Params, env.keys)
		want, err := prog.Executor().Run(ctx, local, ct, sched.RunOpts{})
		if err != nil {
			t.Fatalf("%s: sched local: %v", name, err)
		}
		if want.Level() != prog.OutLevel || want.Scale != prog.OutScale {
			t.Fatalf("%s: executor output %d/%g, registry advertises %d/%g", name, want.Level(), want.Scale, prog.OutLevel, prog.OutScale)
		}

		prov := emulator.NewCKKSProvider(reg.Params)
		prov.Plaintexts = prog.Plaintexts
		prov.Keys = env.keys
		prov.Inputs["x0"] = ct
		if err := emulator.New(reg.Params.Ring, prog.VariantFor(1).Module, prov).Run(); err != nil {
			t.Fatalf("%s: emulator: %v", name, err)
		}
		emu, err := prov.Output("y0", prog.OutLevel, prog.OutScale)
		if err != nil {
			t.Fatalf("%s: emulator output: %v", name, err)
		}
		sameCiphertext(t, name+": emulator vs sched local", emu, want)

		remote := tenantEvaluator(reg.Params, env.keys)
		remote.SetKeySwitcher(eng.Bound(ctx))
		clustered, err := prog.Executor().Run(ctx, remote, ct, sched.RunOpts{})
		if err != nil {
			t.Fatalf("%s: sched over cluster: %v", name, err)
		}
		sameCiphertext(t, name+": sched over cluster vs sched local", clustered, want)
	}
	if snap := eng.Snapshot(); snap.Broadcasts == 0 && snap.Aggregations == 0 {
		t.Fatal("cluster counters show no collectives: the pipe engine was not exercised")
	}
}
