package trace

import "testing"

func TestDecisionLog(t *testing.T) {
	var log DecisionLog
	for i := 0; i < 10; i++ {
		log.Record(DecisionRecord{Index: int64(i)})
	}
	if len(log.Records) != 10 || log.Records[9].Index != 9 {
		t.Fatalf("log holds %d records, want 10 in order", len(log.Records))
	}
	log.Reset()
	if len(log.Records) != 0 || cap(log.Records) < 10 {
		t.Fatal("Reset must truncate keeping capacity")
	}
}

func TestDecisionRecordFlags(t *testing.T) {
	rec := DecisionRecord{Flags: DecisionShutdown | DecisionLong, Start: 10, End: 40}
	if !rec.Shutdown() || !rec.Long() || rec.Terminal() || rec.Flipped() {
		t.Fatal("flag accessors disagree with bits")
	}
	if rec.ActualIdle() != 30 {
		t.Fatalf("ActualIdle = %v, want 30", rec.ActualIdle())
	}
}
