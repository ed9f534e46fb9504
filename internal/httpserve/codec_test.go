package httpserve

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	videodist "repro"
	"repro/streamclient"
)

// TestAppendResultLineMatchesStdlibDecode pins the hand-rolled result
// encoder: every line it emits must decode (stdlib) into exactly the
// streamclient.Result the equivalent stdlib encoding decodes into —
// including the nil-vs-empty slice semantics of omitempty fields.
func TestAppendResultLineMatchesStdlibDecode(t *testing.T) {
	cases := []videodist.StreamResult{
		{Seq: 0, Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{Accepted: true, Subscribers: []int{2, 5}, Utility: 7.25}},
		{Seq: 1, Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{}}, // rejected: nil subscribers -> null
		{Seq: 2, Type: videodist.ClusterStreamDeparture,
			Depart: videodist.DepartResult{Removed: true, Subscribers: []int{0}}},
		{Seq: 3, Type: videodist.ClusterUserLeave,
			Churn: videodist.ChurnResult{Changed: true, Streams: []int{1, 4}}},
		{Seq: 4, Type: videodist.ClusterUserJoin, Churn: videodist.ChurnResult{}},
		{Seq: 5, Type: videodist.ClusterResolve,
			Resolve: videodist.ResolveResult{Installed: true, OnlineValue: 1.5, OfflineValue: 2e-7}},
		{Seq: 6, Type: videodist.ClusterStreamArrival, CatalogID: "ch-1",
			Catalog: videodist.CatalogResult{Admitted: true, Subscribers: []int{3},
				Utility: 4.5, Refs: 2, SharedWith: []int{1}, CostScale: 0.25,
				FullCost: 10, CostCharged: 2.5}},
		{Seq: 7, Type: videodist.ClusterStreamDeparture, CatalogID: "ch-1",
			Catalog: videodist.CatalogResult{Removed: true, Refs: 0, Evicted: true}},
		{Seq: 8, Type: videodist.ClusterStreamArrival,
			Err: errors.New(`cluster: "quoted" & weird ünïcode error`)},
	}
	for _, res := range cases {
		line := appendResultLine(nil, res)
		var got streamclient.Result
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("seq %d: emitted invalid JSON %q: %v", res.Seq, line, err)
		}
		// The stdlib reference: marshal the equivalent Result and decode.
		ref := streamclient.Result{Seq: res.Seq, Type: streamclient.TypeName(res.Type, res.CatalogID != "")}
		switch {
		case res.Err != nil:
			ref.Error = res.Err.Error()
		case res.CatalogID != "":
			v := res.Catalog
			ref.Catalog = &v
		case res.Type == videodist.ClusterStreamArrival:
			v := res.Offer
			ref.Offer = &v
		case res.Type == videodist.ClusterStreamDeparture:
			v := res.Depart
			ref.Depart = &v
		case res.Type == videodist.ClusterUserLeave, res.Type == videodist.ClusterUserJoin:
			v := res.Churn
			ref.Churn = &v
		case res.Type == videodist.ClusterResolve:
			v := res.Resolve
			ref.Resolve = &v
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var want streamclient.Result
		if err := json.Unmarshal(refJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seq %d:\nhand-rolled %s\n-> %+v\nstdlib      %s\n-> %+v",
				res.Seq, line, got, refJSON, want)
		}
	}
}
