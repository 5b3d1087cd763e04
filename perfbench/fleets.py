"""Fleet specs for the benchmark workloads, built from the workload seed.

The paper-scale fleet matches the shape of the paper's data set: 1087
vehicles, 81 systems and 96 months, about 136k jobs. It plants four
low-rank components and a (PM, tires, PM) motif in the Dodge Charger group,
the same structure ``synth.demo_spec`` plants at demo scale.
"""

from __future__ import annotations

from fleetmaint.synth import FleetSpec, PlantedComponent, PlantedMotif, demo_spec

PAPER_DIMS = (1087, 81, 96)
PAPER_WINDOW_START = "2010-01"
TARGET_MAKE_MODEL = "DODGE CHARGER"
MOTIF_LABELS = ("PM Service All Levels", "Tires, Tubes, Liners & Valves", "PM Service All Levels")

_NAMED_SYSTEMS = (
    "Air Intake", "Axles", "Batteries", "Body Hardware", "Brakes",
    "Cab & Sheet Metal", "Charging System", "Clutch", "Cooling System",
    "Cranking System", "Differential", "Drive Shaft", "Electrical & Lighting",
    "Emission Controls", "Engine / Motor Systems Group", "Exhaust",
    "Frame", "Fuel System", "Glass", "Heating & Air Conditioning",
    "Horn", "Hydraulics", "Ignition", "Instruments & Gauges", "Lift Gate",
    "Mirrors", "Mowing Blades", "PM Service All Levels", "Power Take-Off",
    "Radio & Communications", "Seats", "Steering", "Suspension",
    "Tires, Tubes, Liners & Valves", "Towing", "Transmission", "Warning Lights",
    "Wheels", "Wipers & Washers",
)
PAPER_SYSTEMS = _NAMED_SYSTEMS + tuple(
    f"Accessory Group {k:02d}" for k in range(1, PAPER_DIMS[1] - len(_NAMED_SYSTEMS) + 1)
)
PAPER_VEHICLES = {
    "DODGE CHARGER": 300,
    "FORD CROWN VICTORIA": 250,
    "FORD F150": 250,
    "CHEVROLET TAHOE": 150,
    "HUSTLER X-ONE": 137,
}


def paper_spec(seed: int) -> FleetSpec:
    months = PAPER_DIMS[2]
    summer = tuple(1.0 if (m % 12) in (5, 6, 7) else 0.0 for m in range(months))
    winter = tuple(1.0 if (m % 12) in (0, 1, 11) else 0.0 for m in range(months))
    pm_cycle = tuple(1.0 if m % 6 == 0 else 0.15 for m in range(months))
    ramp = tuple(m / (months - 1.0) for m in range(months))
    return FleetSpec(
        seed=seed,
        vehicles=dict(PAPER_VEHICLES),
        window_start=PAPER_WINDOW_START,
        months=months,
        systems=PAPER_SYSTEMS,
        background_rate=0.007,
        components=[
            PlantedComponent(
                name="summer-mower",
                vehicle_weights={"HUSTLER X-ONE": 1.0},
                system_weights={"Mowing Blades": 1.0, "Tires, Tubes, Liners & Valves": 0.8},
                time_profile=summer,
                intensity=2.5,
            ),
            PlantedComponent(
                name="police-pm",
                vehicle_weights={"DODGE CHARGER": 1.0, "FORD CROWN VICTORIA": 0.9},
                system_weights={"PM Service All Levels": 1.0},
                time_profile=pm_cycle,
                intensity=0.8,
            ),
            PlantedComponent(
                name="wear-ramp",
                vehicle_weights={
                    "DODGE CHARGER": 1.0, "FORD CROWN VICTORIA": 1.0, "FORD F150": 0.8,
                    "CHEVROLET TAHOE": 0.8, "HUSTLER X-ONE": 0.6,
                },
                system_weights={"Brakes": 1.0, "Exhaust": 0.4},
                time_profile=ramp,
                intensity=0.5,
            ),
            PlantedComponent(
                name="winter-trucks",
                vehicle_weights={"FORD F150": 1.0, "CHEVROLET TAHOE": 1.0},
                system_weights={"Heating & Air Conditioning": 1.0, "Batteries": 0.5},
                time_profile=winter,
                intensity=0.6,
            ),
        ],
        motifs=[PlantedMotif(make_model=TARGET_MAKE_MODEL, labels=MOTIF_LABELS, rate=0.08)],
    )


def dept_specs(seed: int, count: int) -> list[FleetSpec]:
    """Demo-size department fleets with seeds derived from the workload seed."""
    return [demo_spec(seed=seed * 1000 + k) for k in range(count)]
