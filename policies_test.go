package dessched

import "testing"

func TestPoliciesCatalogue(t *testing.T) {
	all := Policies()
	if len(all) == 0 {
		t.Fatal("empty policy catalogue")
	}
	kinds := map[PolicyKind]bool{}
	for _, e := range all {
		kinds[e.Kind] = true
	}
	for _, k := range []PolicyKind{PolicyScheduler, PolicyQueueOrder, PolicyAdmission, PolicyDispatch} {
		if !kinds[k] {
			t.Errorf("catalogue lacks kind %s", k)
		}
		if len(PolicyNames(k)) == 0 {
			t.Errorf("PolicyNames(%s) is empty", k)
		}
	}
}

func TestFacadeParsersAgree(t *testing.T) {
	// Every catalogued name must resolve through its kind's facade parser.
	for _, e := range Policies() {
		var err error
		switch e.Kind {
		case PolicyScheduler:
			_, err = ParseSchedulerPolicy(e.Name)
		case PolicyQueueOrder:
			_, err = ParseQueueOrder(e.Name)
		case PolicyAdmission:
			_, err = ParseAdmission(e.Name)
		case PolicyDispatch:
			_, err = ParseDispatch(e.Name)
		}
		if err != nil {
			t.Errorf("%s %q: %v", e.Kind, e.Name, err)
		}
	}
	if o, err := ParseQueueOrder("prio-sjf"); err != nil || o != OrderPrioSJF {
		t.Errorf("ParseQueueOrder(prio-sjf) = %v, %v", o, err)
	}
	if _, err := ParseQueueOrder("lifo"); err == nil {
		t.Error("ParseQueueOrder accepted lifo")
	}
}
