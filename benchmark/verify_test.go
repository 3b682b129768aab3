package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Each verifier must accept a right result and trip on a wrong one;
// otherwise a run that reports failed == 0 proves nothing.

func TestVerifyEcho(t *testing.T) {
	in := []Payload{{Op: 7, Seq: 0, Name: "n", Body: []byte{1, 2}}, {Op: 7, Seq: 1, Name: "n", Body: []byte{3}}}
	out := []Payload{in[0], in[1]}
	if err := verifyEcho(in, out); err != nil {
		t.Fatalf("right echo rejected: %v", err)
	}
	for name, wrong := range map[string]Payload{
		"seq":  {Op: 7, Seq: 9, Name: "n", Body: []byte{3}},
		"body": {Op: 7, Seq: 1, Name: "n", Body: []byte{4}},
		"op":   {Op: 8, Seq: 1, Name: "n", Body: []byte{3}},
	} {
		if verifyEcho(in, []Payload{in[0], wrong}) == nil {
			t.Errorf("echo with a wrong %s accepted", name)
		}
	}
}

func TestVerifyDataflow(t *testing.T) {
	const token = 42
	res := make([]int64, 2*rootsPerOp+1)
	for i := 0; i < rootsPerOp; i++ {
		res[i] = int64(10 + i)
		res[rootsPerOp+i] = mix(res[i], token)
	}
	res[2*rootsPerOp] = mix(res[2*rootsPerOp-1], token)
	if err := verifyDataflow(token, res); err != nil {
		t.Fatalf("right dataflow rejected: %v", err)
	}
	for i := range res {
		wrong := append([]int64(nil), res...)
		wrong[i]++
		if i < rootsPerOp {
			wrong[i] = 0 // an Add that never applied
		}
		if verifyDataflow(token, wrong) == nil {
			t.Errorf("dataflow with result %d wrong accepted", i)
		}
	}
}

func TestVerifyWrites(t *testing.T) {
	if err := verifyWrites([]int64{1, 2, 5, 9}); err != nil {
		t.Fatalf("right writes rejected: %v", err)
	}
	for _, wrong := range [][]int64{{1, 1, 5, 9}, {0, 1, 5, 9}, {1, 2, 9, 5}} {
		if verifyWrites(wrong) == nil {
			t.Errorf("writes %v accepted", wrong)
		}
	}
}

func TestVerifyTotals(t *testing.T) {
	if err := verifyTotals([]int64{3, 0, 8}, []int64{3, 0, 8}); err != nil {
		t.Fatalf("right totals rejected: %v", err)
	}
	if verifyTotals([]int64{3, 0, 7}, []int64{3, 0, 8}) == nil {
		t.Error("a lost acked increment accepted")
	}
	if verifyTotals([]int64{3, 1, 8}, []int64{3, 0, 8}) == nil {
		t.Error("a duplicated increment accepted")
	}
}

func TestVerifyReads(t *testing.T) {
	w := workloadByName("cached_reads")
	c := newClient(w, 1, 1) // writes the odd objects
	now := time.Now()
	c.lastPut[5] = 30000
	c.recent = []ackedPut{
		{at: now.Add(-leaseTTL - 2*staleSlack), obj: 5, version: 20000}, // no lease can still undercut this one
		{at: now.Add(-leaseTTL / 2), obj: 5, version: 30000},            // a lease filled during this Put's flight may
	}
	objs := []int{5, 2}
	bounds := func() (lo, hi []int64) {
		for _, obj := range objs {
			l, h := c.readBounds(obj, now)
			lo, hi = append(lo, l), append(hi, h)
		}
		return lo, hi
	}
	lo, hi := bounds()
	for _, right := range [][]int64{{30000, initialVersion(2)}, {20000, initialVersion(2)}, {25000, 40000}} {
		if err := verifyReads(objs, right, lo, hi); err != nil {
			t.Errorf("right reads %v rejected: %v", right, err)
		}
	}
	for name, wrong := range map[string][]int64{
		"older than a Put acked a lease lifetime ago":   {19999, initialVersion(2)},
		"newer than the only writer's last acked Put":   {30001, initialVersion(2)},
		"older than the other client's initial version": {30000, initialVersion(2) - 1},
	} {
		if verifyReads(objs, wrong, lo, hi) == nil {
			t.Errorf("a read %s accepted", name)
		}
	}
	// Once the second Put is a lease lifetime old too, it is the floor.
	now = now.Add(leaseTTL)
	if lo, hi = bounds(); verifyReads(objs, []int64{20000, initialVersion(2)}, lo, hi) == nil {
		t.Error("a read older than the last acked Put accepted a lease lifetime after its ack")
	}
}

func TestVerifyScan(t *testing.T) {
	right := func() []scanEntry {
		return []scanEntry{
			{Index: 0, Name: "kv-3", Value: initialVersion(3)},
			{Index: 1, Name: "kv-4", Value: initialVersion(4)},
		}
	}
	if err := verifyScan(3, 2, right()); err != nil {
		t.Fatalf("right scan rejected: %v", err)
	}
	swapped := right()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	value := right()
	value[1].Value++
	for name, wrong := range map[string][]scanEntry{"short": right()[:1], "order": swapped, "value": value} {
		if verifyScan(3, 2, wrong) == nil {
			t.Errorf("scan with wrong %s accepted", name)
		}
	}
}

// TestFailedOpFailsTheRun makes a workload's verifier fail and checks the
// run says so: failed ops counted, correct == false.
func TestFailedOpFailsTheRun(t *testing.T) {
	sp := mustSpec(t)
	w := *workloadByName("echo_flush")
	do := w.do
	w.do = func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
		if calls, err := do(ctx, d, c, o); err != nil || c.seq%2 == 1 {
			return calls, err
		}
		return 0, errors.New("verifier made to fail")
	}
	res, err := runPlain(&w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed >= res.Ops {
		t.Fatalf("failed = %d of %d ops, want about half", res.Failed, res.Ops)
	}
	if v := res.EndToEnd[failedOpsRatio].Value; v <= 0 {
		t.Errorf("%s = %v, want > 0", failedOpsRatio, v)
	}
	if contractLine(sp, res, false).Correct {
		t.Errorf("contract line says correct with %d failed ops", res.Failed)
	}
}
