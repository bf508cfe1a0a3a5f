package store

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReservedPlanBlobFrameSkipped: logs written when the store still
// journaled full plans hold type-0x05 frames (a 32-byte fingerprint
// followed by a codec blob). Such a log must open without truncation,
// keep every other record around the old frames, and still take appends.
// The frames are written with the literal type byte, so a new record type
// that reused 0x05 would misparse them and fail here.
func TestReservedPlanBlobFrameSkipped(t *testing.T) {
	dir := t.TempDir()
	fp := testPlanKey(1)
	fp2 := testPlanKey(2)
	f := testFinding(1)
	var b []byte
	b = appendFrame(b, recPlan, fp[:])
	b = appendFrame(b, 0x05, append(fp[:], 0x55, 0x50, 0x43, 0x01, 0x02)) // fingerprint + blob
	b = appendFrame(b, recFinding, appendFindingPayload(nil, f))
	b = appendFrame(b, 0x05, fp2[:]) // fingerprint, empty blob
	b = appendFrame(b, recPlan, fp2[:])
	path := filepath.Join(dir, "shard-000.log")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir, Options{Shards: 1})
	rec := s.Recovered()
	if rec.Truncated != 0 || rec.DroppedBytes != 0 {
		t.Fatalf("reserved frames truncated the log: %d shard(s), %d byte(s)", rec.Truncated, rec.DroppedBytes)
	}
	if len(rec.Plans) != 2 || rec.Plans[0] != fp || rec.Plans[1] != fp2 {
		t.Errorf("plans around the reserved frames: %x", rec.Plans)
	}
	if len(rec.Findings) != 1 || rec.Findings[0] != f {
		t.Errorf("findings around the reserved frames: %+v", rec.Findings)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(b)) {
		t.Fatalf("shard file changed on open: %v, %v", info, err)
	}
	if fresh, err := s.AppendPlan(testPlanKey(3)); err != nil || !fresh {
		t.Fatalf("AppendPlan after reopen: fresh=%v err=%v", fresh, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{Shards: 1})
	defer re.Close()
	if got := len(re.Recovered().Plans); got != 3 {
		t.Errorf("recovered %d plans after appending behind reserved frames, want 3", got)
	}
}
